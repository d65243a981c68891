#ifndef GREEN_SERVE_INFERENCE_SERVER_H_
#define GREEN_SERVE_INFERENCE_SERVER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "green/common/fault.h"
#include "green/energy/energy_meter.h"
#include "green/serve/artifact_ladder.h"
#include "green/serve/request_stream.h"
#include "green/serve/serve_policy.h"

namespace green {

/// Terminal fate of one request. Every arrival reaches exactly one of
/// these — the conservation invariant the soak test asserts under faults,
/// deadlines, and overload.
enum class RequestOutcome {
  kCompleted = 0,  ///< Answered by the initially selected tier.
  kDegraded = 1,   ///< Answered, but by a cheaper fallback tier.
  kRejected = 2,   ///< Shed at admission, or failed after retries.
  kDeadlineExceeded = 3,  ///< No answer before the deadline (kFail policy).
};

struct RequestResult {
  size_t request_index = 0;
  RequestOutcome outcome = RequestOutcome::kRejected;
  double arrival_seconds = 0.0;
  double finish_seconds = 0.0;   ///< Virtual time of the terminal outcome.
  double latency_seconds = 0.0;  ///< finish - arrival.
  double joules = 0.0;  ///< Dynamic energy attributed to this request.
  int predicted_class = -1;  ///< >= 0 for answered requests.
  std::string tier;          ///< Ladder tier that answered (if any).
  std::string error;         ///< Failure message (if any).

  bool answered() const {
    return outcome == RequestOutcome::kCompleted ||
           outcome == RequestOutcome::kDegraded;
  }
};

/// Everything one Replay produced: per-request results, tallies, and the
/// meter reading (callers file it into a StageLedger under
/// Stage::kServing, which lands the serve/... scope subtree at
/// serving/serve/...).
struct ServeReport {
  std::vector<RequestResult> results;  ///< Indexed by request.

  size_t arrived = 0;
  size_t admitted = 0;  ///< Entered the queue and were never evicted.
  size_t completed = 0;
  size_t degraded = 0;
  size_t rejected = 0;
  size_t deadline_exceeded = 0;
  /// Subset of `rejected` that never reached a batch: shed at admission,
  /// evicted from the queue, or refused by an injected serve.admit fault.
  size_t rejected_unserved = 0;
  size_t batches = 0;

  double duration_seconds = 0.0;  ///< Virtual time the replay spanned.
  double total_joules = 0.0;      ///< Dynamic joules across the replay.
  EnergyReading reading;

  /// Nearest-rank latency percentile over answered requests, p in (0, 1].
  double LatencyPercentile(double p) const;

  /// Mean dynamic joules per arrived request.
  double JoulesPerRequest() const;

  /// Verifies the serving invariants:
  ///   * one result per arrival, finish >= arrival on each;
  ///   * arrived == completed + degraded + rejected + deadline_exceeded,
  ///     and the tallies match a recount of `results`;
  ///   * admitted == arrived - (requests rejected without service);
  ///   * sum of per-request joules == total_joules (fp tolerance).
  /// Non-OK means a request was lost or double-counted, or energy leaked
  /// past the per-request attribution.
  Status CheckConservation() const;
};

/// Discrete-event model of an online inference service on the virtual
/// clock. Requests arrive open-loop; the server admits them into a
/// bounded queue (shedding per policy when full), groups admitted
/// requests into adaptive micro-batches (waiting up to batch_delay for
/// company), and answers each batch from the artifact ladder. Per-request
/// deadlines are enforced as a hard per-batch deadline on the execution
/// context, so a too-slow predict is truncated mid-charge and either
/// fails (kFail) or retries down the ladder (kDegrade); the constant tier
/// can always answer, so degradation terminates. All work is metered
/// under a "serve" ChargeScope subtree (serve/admit, serve/batch,
/// serve/predict/<tier>), and each request is attributed its share of
/// dynamic energy.
///
/// Fault sites: serve.admit (request rejected), serve.batch (dispatch
/// retried with virtual backoff, then the batch fails), serve.predict
/// (tier attempt fails; the server falls down the ladder when the policy
/// allows, mirroring an organic deadline).
class InferenceServer {
 public:
  /// `data` holds the feature rows requests index into; `faults` may be
  /// null. The server serves replicas of one machine: `cores` is the
  /// parallelism each batch predict may assume.
  InferenceServer(ArtifactLadder ladder, Dataset data,
                  const EnergyModel* model, const ServePolicy& policy,
                  const FaultInjector* faults = nullptr, int cores = 1);

  /// Replays `trace` (sorted by arrival time) on a fresh virtual clock.
  /// Deterministic: same ladder, trace, policy, and fault spec =>
  /// identical report.
  Result<ServeReport> Replay(const std::vector<ServeRequest>& trace) const;

  const ServePolicy& policy() const { return policy_; }
  const ArtifactLadder& ladder() const { return ladder_; }

 private:
  ArtifactLadder ladder_;
  Dataset data_;
  const EnergyModel* model_;  // Not owned.
  ServePolicy policy_;
  const FaultInjector* faults_;  // Not owned; may be null.
  int cores_;
};

}  // namespace green

#endif  // GREEN_SERVE_INFERENCE_SERVER_H_
