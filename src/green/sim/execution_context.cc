#include "green/sim/execution_context.h"

#include <cmath>

#include "green/sim/charge_trace.h"

namespace green {

double ExecutionContext::Charge(const Work& work) {
  // The work is executed (priced) exactly once; slicing only staggers how
  // the clock walks to the same end time, so a completed sliced charge is
  // bit-identical to an unsliced one.
  const WorkExecution exec = model_->Execute(work, cores_);
  const double start = clock_->Now();
  const double target = start + exec.seconds;

  int slices = 1;
  if (max_slice_seconds_ > 0.0 && exec.seconds > max_slice_seconds_) {
    const double wanted = std::ceil(exec.seconds / max_slice_seconds_);
    slices = wanted < static_cast<double>(kMaxSlicesPerCharge)
                 ? static_cast<int>(wanted)
                 : kMaxSlicesPerCharge;
  }

  int completed = 0;
  for (int i = 1; i <= slices; ++i) {
    if (i > 1 &&
        (Cancelled() || (hard_deadline_ && clock_->Now() >= deadline_))) {
      charge_truncated_ = true;
      break;
    }
    if (i == slices) {
      clock_->AdvanceTo(target);
    } else {
      clock_->AdvanceTo(start + exec.seconds *
                                    (static_cast<double>(i) /
                                     static_cast<double>(slices)));
    }
    ++completed;
    ++charge_slices_;
  }

  if (completed == slices) {
    if (meter_ != nullptr) meter_->Record(work, exec, scope_path_);
    return exec.seconds;
  }

  // Truncated: meter only the completed fraction so energy
  // stays a pure function of the virtual time actually elapsed.
  const double fraction =
      static_cast<double>(completed) / static_cast<double>(slices);
  Work partial_work = work;
  partial_work.flops *= fraction;
  partial_work.bytes *= fraction;
  WorkExecution partial_exec = exec;
  partial_exec.seconds *= fraction;
  partial_exec.busy_core_seconds *= fraction;
  partial_exec.gpu_busy_seconds *= fraction;
  if (meter_ != nullptr) meter_->Record(partial_work, partial_exec, scope_path_);
  return clock_->Now() - start;
}

double ExecutionContext::ChargeCpu(double flops, double bytes,
                                   double parallel_fraction) {
  Work w;
  w.flops = flops;
  w.bytes = bytes;
  w.device = Device::kCpu;
  w.parallel_fraction = parallel_fraction;
  return Charge(w);
}

double ExecutionContext::ChargeAccelerated(double flops, double bytes) {
  Work w;
  w.flops = flops;
  w.bytes = bytes;
  w.device = HasGpu() ? Device::kGpu : Device::kCpu;
  w.parallel_fraction = 0.98;  // Matmul-heavy work parallelizes well.
  return Charge(w);
}

size_t ExecutionContext::PushScope(std::string_view name) {
  const size_t previous_length = scope_path_.size();
  if (!scope_path_.empty()) scope_path_.push_back('/');
  scope_path_.append(name);
  ++scope_depth_;
  ChargeTrace& trace = ChargeTrace::Instance();
  if (trace.enabled()) trace.Enter(scope_path_, clock_->Now());
  return previous_length;
}

void ExecutionContext::PopScope(size_t previous_length, double entered_at) {
  ChargeTrace& trace = ChargeTrace::Instance();
  if (trace.enabled()) {
    trace.Exit(scope_path_, clock_->Now(), clock_->Now() - entered_at);
  }
  scope_path_.resize(previous_length);
  --scope_depth_;
}

ChargeScope::ChargeScope(ExecutionContext* ctx, std::string_view name)
    : ctx_(ctx), entered_at_(ctx->Now()) {
  previous_length_ = ctx_->PushScope(name);
}

ChargeScope::~ChargeScope() { ctx_->PopScope(previous_length_, entered_at_); }

}  // namespace green
