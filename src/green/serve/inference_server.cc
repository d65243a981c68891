#include "green/serve/inference_server.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <utility>

#include "green/common/mathutil.h"
#include "green/common/stringutil.h"
#include "green/sim/execution_context.h"
#include "green/sim/virtual_clock.h"

namespace green {

namespace {

/// Bookkeeping work per admitted request / per dispatched batch member.
/// Tiny on purpose: admission control must stay cheap relative to
/// inference or shedding would cost more than serving.
constexpr double kAdmitFlops = 64.0;
constexpr double kDispatchFlopsPerRequest = 128.0;

/// A serve.batch fault is treated as transient infrastructure trouble:
/// the dispatch retries after a short virtual backoff, and only fails the
/// batch once the retries are exhausted.
constexpr int kMaxBatchRetries = 2;
constexpr double kBatchRetryBackoffSeconds = 0.001;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One Replay's worth of mutable state; keeps the event loop readable.
struct ReplayEngine {
  ReplayEngine(const ArtifactLadder& ladder, const Dataset& data,
               const EnergyModel* model, const ServePolicy& policy,
               const FaultInjector* faults, int cores,
               const std::vector<ServeRequest>& trace)
      : ladder(ladder),
        data(data),
        policy(policy),
        faults(faults),
        trace(trace),
        ctx(&clock, model, cores),
        meter(model) {}

  const ArtifactLadder& ladder;
  const Dataset& data;
  const ServePolicy& policy;
  const FaultInjector* faults;
  const std::vector<ServeRequest>& trace;

  VirtualClock clock;
  ExecutionContext ctx;
  EnergyMeter meter;
  ServeReport report;
  std::deque<size_t> queue;
  size_t next = 0;  ///< Next trace entry to ingest.

  void Run();
  void IngestDue();
  void Admit(size_t index);
  void ServeBatch(const std::vector<size_t>& batch);

  /// True when `index`'s deadline has already passed under the strict
  /// policy; such requests are expired lazily at batch formation instead
  /// of wasting predict work. The degrade policy keeps them: the ladder
  /// will still produce a (possibly degraded) answer.
  bool ExpiredInQueue(size_t index) const {
    return policy.deadline_seconds > 0.0 &&
           policy.on_deadline == ServePolicy::DeadlineAction::kFail &&
           trace[index].arrival_seconds + policy.deadline_seconds <=
               clock.Now();
  }

  void Count(RequestOutcome outcome) {
    switch (outcome) {
      case RequestOutcome::kCompleted:
        ++report.completed;
        break;
      case RequestOutcome::kDegraded:
        ++report.degraded;
        break;
      case RequestOutcome::kRejected:
        ++report.rejected;
        break;
      case RequestOutcome::kDeadlineExceeded:
        ++report.deadline_exceeded;
        break;
    }
  }

  /// Terminal outcome for a request that never reached a batch.
  void FinishUnserved(size_t index, RequestOutcome outcome,
                      std::string error) {
    RequestResult& r = report.results[index];
    r.outcome = outcome;
    r.finish_seconds = clock.Now();
    r.latency_seconds = clock.Now() - r.arrival_seconds;
    r.error = std::move(error);
    if (outcome == RequestOutcome::kRejected) ++report.rejected_unserved;
    Count(outcome);
  }

  /// Uniform terminal outcome for a whole failed batch; splits the
  /// dynamic energy spent since `joules_before` evenly across members.
  void FailBatch(const std::vector<size_t>& batch, double joules_before,
                 RequestOutcome outcome, const std::string& error) {
    const double share = (meter.dynamic_joules() - joules_before) /
                         static_cast<double>(batch.size());
    for (size_t index : batch) {
      RequestResult& r = report.results[index];
      r.joules += share;
      r.outcome = outcome;
      r.finish_seconds = clock.Now();
      r.latency_seconds = clock.Now() - r.arrival_seconds;
      r.error = error;
      Count(outcome);
    }
  }
};

void ReplayEngine::Admit(size_t index) {
  const ServeRequest& request = trace[index];
  RequestResult& r = report.results[index];
  r.request_index = index;
  r.arrival_seconds = request.arrival_seconds;
  ++report.arrived;
  const double joules_before = meter.dynamic_joules();
  {
    ChargeScope admit_scope(&ctx, "admit");
    ctx.ChargeCpu(kAdmitFlops, 0.0);
  }
  r.joules += meter.dynamic_joules() - joules_before;
  if (faults != nullptr) {
    Status fault = faults->Check("serve.admit");
    if (!fault.ok()) {
      FinishUnserved(index, RequestOutcome::kRejected, fault.message());
      return;
    }
  }
  if (queue.size() >= policy.queue_capacity) {
    if (policy.shed == ServePolicy::ShedPolicy::kNewest) {
      FinishUnserved(index, RequestOutcome::kRejected, "shed: queue full");
      return;
    }
    const size_t victim = queue.front();
    queue.pop_front();
    --report.admitted;
    FinishUnserved(victim, RequestOutcome::kRejected,
                   "shed: evicted by newer arrival");
  }
  queue.push_back(index);
  ++report.admitted;
}

void ReplayEngine::IngestDue() {
  while (next < trace.size() &&
         trace[next].arrival_seconds <= clock.Now()) {
    Admit(next);
    ++next;
  }
}

void ReplayEngine::ServeBatch(const std::vector<size_t>& batch) {
  ++report.batches;
  const double joules_before = meter.dynamic_joules();

  // Dispatch bookkeeping, with transient-fault retries on serve.batch.
  {
    ChargeScope batch_scope(&ctx, "batch");
    ctx.ChargeCpu(kDispatchFlopsPerRequest * static_cast<double>(batch.size()),
                  0.0);
  }
  if (faults != nullptr) {
    int attempt = 0;
    for (;;) {
      Status fault = faults->Check("serve.batch");
      if (fault.ok()) break;
      if (attempt++ >= kMaxBatchRetries) {
        const bool timeout =
            fault.code() == Status::Code::kDeadlineExceeded;
        FailBatch(batch, joules_before,
                  timeout ? RequestOutcome::kDeadlineExceeded
                          : RequestOutcome::kRejected,
                  fault.message());
        return;
      }
      clock.Advance(kBatchRetryBackoffSeconds);
    }
  }

  // Energy-SLO tier preselection: the best tier whose probed per-row
  // cost fits the per-request budget (the cheapest tier when none does).
  // Serving at the SLO-chosen tier still counts as kCompleted — the SLO
  // *is* the requested service level.
  size_t slo_tier = 0;
  if (policy.energy_slo_joules > 0.0) {
    slo_tier = ladder.size() - 1;
    for (size_t t = 0; t < ladder.size(); ++t) {
      if (ladder.tier(t).est_joules_per_row <= policy.energy_slo_joules) {
        slo_tier = t;
        break;
      }
    }
  }

  // The batch's hard deadline is the earliest member deadline; the
  // context truncates any charge that would run past it.
  double hard_deadline = kInf;
  if (policy.deadline_seconds > 0.0) {
    for (size_t index : batch) {
      hard_deadline =
          std::min(hard_deadline,
                   trace[index].arrival_seconds + policy.deadline_seconds);
    }
  }

  // Deadline-aware preselection under the degrade policy: fall to the
  // first tier whose probed cost is expected to land before the batch
  // deadline, so requests degrade proactively instead of burning the
  // expensive tier's energy only to finish late. Requests served below
  // slo_tier count as kDegraded. (Charge-slice truncation still backstops
  // a probe that underestimates.)
  size_t start_tier = slo_tier;
  if (hard_deadline < kInf &&
      policy.on_deadline == ServePolicy::DeadlineAction::kDegrade) {
    while (start_tier + 1 < ladder.size() &&
           clock.Now() +
                   ladder.tier(start_tier).est_seconds_per_row *
                       static_cast<double>(batch.size()) >
               hard_deadline) {
      ++start_tier;
    }
  }

  std::vector<size_t> rows;
  rows.reserve(batch.size());
  for (size_t index : batch) {
    rows.push_back(trace[index].row % data.num_rows());
  }
  const Dataset batch_data = data.Subset(rows);

  std::string last_error;
  bool last_timeout = false;
  for (size_t t = start_tier; t < ladder.size(); ++t) {
    const ArtifactTier& tier = ladder.tier(t);
    const bool has_cheaper = t + 1 < ladder.size();
    if (faults != nullptr) {
      Status fault = faults->Check("serve.predict");
      if (!fault.ok()) {
        last_error = fault.message();
        last_timeout = fault.code() == Status::Code::kDeadlineExceeded;
        // Injected timeouts obey the deadline policy; other injected
        // faults always fall down the ladder while a rung remains.
        if (has_cheaper &&
            (!last_timeout ||
             policy.on_deadline == ServePolicy::DeadlineAction::kDegrade)) {
          continue;
        }
        break;
      }
    }
    if (hard_deadline < kInf) {
      ctx.SetDeadline(hard_deadline);
      ctx.SetHardDeadline(true);
    }
    Result<ProbaMatrix> proba = [&]() -> Result<ProbaMatrix> {
      ChargeScope predict_scope(&ctx, "predict");
      ChargeScope tier_scope(&ctx, tier.name);
      return tier.PredictProba(batch_data, &ctx);
    }();
    ctx.ClearDeadline();
    ctx.SetHardDeadline(false);
    const bool truncated = ctx.charge_truncated();
    // Re-arm: the per-request deadline is batch-local, the server lives on.
    if (truncated) ctx.ClearChargeTruncation();

    if (proba.ok() && !truncated) {
      const double share = (meter.dynamic_joules() - joules_before) /
                           static_cast<double>(batch.size());
      for (size_t k = 0; k < batch.size(); ++k) {
        RequestResult& r = report.results[batch[k]];
        r.joules += share;
        r.finish_seconds = clock.Now();
        r.latency_seconds = clock.Now() - r.arrival_seconds;
        RequestOutcome outcome = t == slo_tier
                                     ? RequestOutcome::kCompleted
                                     : RequestOutcome::kDegraded;
        // Strict policy: an answer that lands after the request's own
        // deadline is discarded even when the charge fit its slices.
        if (policy.on_deadline == ServePolicy::DeadlineAction::kFail &&
            policy.deadline_seconds > 0.0 &&
            r.latency_seconds > policy.deadline_seconds) {
          outcome = RequestOutcome::kDeadlineExceeded;
          r.error = "answer landed after deadline";
        } else {
          r.predicted_class = static_cast<int>(ArgMax((*proba)[k]));
          r.tier = tier.name;
        }
        r.outcome = outcome;
        Count(outcome);
      }
      return;
    }

    last_timeout =
        !proba.ok()
            ? proba.status().code() == Status::Code::kDeadlineExceeded
            : true;
    last_error = proba.ok() ? std::string("predict truncated by deadline")
                            : proba.status().message();
    if (has_cheaper &&
        (!last_timeout ||
         policy.on_deadline == ServePolicy::DeadlineAction::kDegrade)) {
      continue;
    }
    break;
  }
  FailBatch(batch, joules_before,
            last_timeout ? RequestOutcome::kDeadlineExceeded
                         : RequestOutcome::kRejected,
            last_error);
}

void ReplayEngine::Run() {
  meter.Start(clock.Now());
  ctx.SetMeter(&meter);
  report.results.resize(trace.size());
  {
    ChargeScope serve_scope(&ctx, "serve");
    // One deterministic decision scope for the whole replay: @p fault
    // draws depend only on (seed, site, ordinal), never on host state.
    FaultScope fault_scope("serve");
    while (next < trace.size() || !queue.empty()) {
      if (queue.empty()) {
        clock.AdvanceTo(trace[next].arrival_seconds);
        IngestDue();
        if (queue.empty()) continue;  // Everything at this instant shed.
      }
      IngestDue();

      // Adaptive micro-batching: drain ready requests, then wait up to
      // batch_delay (virtual) for company before dispatching.
      std::vector<size_t> batch;
      const double batch_open = clock.Now();
      // Waiting for company must never push a member past its own
      // deadline: the wait window closes at the earliest member deadline.
      double wait_until = kInf;
      while (batch.size() < policy.max_batch) {
        while (batch.size() < policy.max_batch && !queue.empty()) {
          const size_t index = queue.front();
          queue.pop_front();
          if (ExpiredInQueue(index)) {
            FinishUnserved(index, RequestOutcome::kDeadlineExceeded,
                           "deadline expired in queue");
          } else {
            batch.push_back(index);
            if (policy.deadline_seconds > 0.0) {
              wait_until = std::min(
                  wait_until, trace[index].arrival_seconds +
                                  policy.deadline_seconds);
            }
          }
        }
        if (batch.size() >= policy.max_batch || next >= trace.size()) break;
        const double next_arrival = trace[next].arrival_seconds;
        if (!batch.empty() &&
            (next_arrival > batch_open + policy.batch_delay_seconds ||
             next_arrival > wait_until)) {
          break;  // Delay budget spent (or a deadline looms); dispatch.
        }
        clock.AdvanceTo(next_arrival);
        IngestDue();
      }
      if (batch.empty()) continue;
      ServeBatch(batch);
    }
  }
  report.duration_seconds = clock.Now();
  report.total_joules = meter.dynamic_joules();
  report.reading = meter.Stop(clock.Now());
}

}  // namespace

double ServeReport::LatencyPercentile(double p) const {
  std::vector<double> latencies;
  latencies.reserve(results.size());
  for (const RequestResult& r : results) {
    if (r.answered()) latencies.push_back(r.latency_seconds);
  }
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  const double rank = std::ceil(p * static_cast<double>(latencies.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank - 1.0, 0.0,
                 static_cast<double>(latencies.size()) - 1.0));
  return latencies[index];
}

double ServeReport::JoulesPerRequest() const {
  if (arrived == 0) return 0.0;
  return total_joules / static_cast<double>(arrived);
}

Status ServeReport::CheckConservation() const {
  if (results.size() != arrived) {
    return Status::Internal(
        StrFormat("serve: %zu results for %zu arrivals", results.size(),
                  arrived));
  }
  size_t completed_count = 0;
  size_t degraded_count = 0;
  size_t rejected_count = 0;
  size_t deadline_count = 0;
  double joules_sum = 0.0;
  for (const RequestResult& r : results) {
    if (r.finish_seconds + 1e-12 < r.arrival_seconds) {
      return Status::Internal(
          StrFormat("serve: request %zu finished before it arrived",
                    r.request_index));
    }
    joules_sum += r.joules;
    switch (r.outcome) {
      case RequestOutcome::kCompleted:
        ++completed_count;
        break;
      case RequestOutcome::kDegraded:
        ++degraded_count;
        break;
      case RequestOutcome::kRejected:
        ++rejected_count;
        break;
      case RequestOutcome::kDeadlineExceeded:
        ++deadline_count;
        break;
    }
  }
  if (completed_count != completed || degraded_count != degraded ||
      rejected_count != rejected || deadline_count != deadline_exceeded) {
    return Status::Internal("serve: outcome tallies disagree with results");
  }
  if (arrived !=
      completed + degraded + rejected + deadline_exceeded) {
    return Status::Internal(StrFormat(
        "serve: %zu arrivals but %zu terminal outcomes", arrived,
        completed + degraded + rejected + deadline_exceeded));
  }
  if (admitted != arrived - rejected_unserved) {
    return Status::Internal(StrFormat(
        "serve: admitted %zu != arrived %zu - unserved rejects %zu",
        admitted, arrived, rejected_unserved));
  }
  const double tolerance = 1e-9 + 1e-6 * std::max(total_joules, 1.0);
  if (std::fabs(joules_sum - total_joules) > tolerance) {
    return Status::Internal(
        StrFormat("serve: per-request joules %.12g != metered %.12g",
                  joules_sum, total_joules));
  }
  return Status::Ok();
}

InferenceServer::InferenceServer(ArtifactLadder ladder, Dataset data,
                                 const EnergyModel* model,
                                 const ServePolicy& policy,
                                 const FaultInjector* faults, int cores)
    : ladder_(std::move(ladder)),
      data_(std::move(data)),
      model_(model),
      policy_(policy),
      faults_(faults),
      cores_(cores) {}

Result<ServeReport> InferenceServer::Replay(
    const std::vector<ServeRequest>& trace) const {
  if (ladder_.size() == 0) {
    return Status::FailedPrecondition("serve: empty artifact ladder");
  }
  if (data_.num_rows() == 0) {
    return Status::FailedPrecondition("serve: no feature rows to serve");
  }
  for (size_t i = 1; i < trace.size(); ++i) {
    if (trace[i].arrival_seconds < trace[i - 1].arrival_seconds) {
      return Status::InvalidArgument(
          "serve: trace must be sorted by arrival time");
    }
  }
  ReplayEngine engine(ladder_, data_, model_, policy_, faults_, cores_,
                      trace);
  engine.Run();
  return std::move(engine.report);
}

}  // namespace green
