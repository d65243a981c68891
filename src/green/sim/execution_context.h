#ifndef GREEN_SIM_EXECUTION_CONTEXT_H_
#define GREEN_SIM_EXECUTION_CONTEXT_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "green/common/cancel.h"
#include "green/energy/energy_meter.h"
#include "green/energy/energy_model.h"
#include "green/sim/virtual_clock.h"

namespace green {

class ChargeScope;
class TransformCache;

/// The handle every instrumented kernel threads through.
///
/// An ExecutionContext glues together the virtual clock, the machine's
/// energy model, the currently metering EnergyMeter (if any), the number of
/// CPU cores allotted to the workload, and an optional deadline. Charging
/// work advances virtual time and attributes dynamic energy — this single
/// funnel is what makes the library's energy numbers a pure function of the
/// algorithms executed.
///
/// Attribution is hierarchical: instrumented layers open RAII ChargeScopes
/// ("caml/search/pipeline/fit/random_forest"), and every charge lands on
/// the scope path active at the moment it is issued. Large charges are
/// split into bounded virtual-time slices, polling the CancelToken (and,
/// optionally, the deadline) between slices so a cell that passes its
/// host time limit stops mid-fit instead of at the next search-loop head.
/// Slicing is bit-identical to a single Advance: the work is executed
/// once, the final slice lands exactly on start + seconds, and a
/// completed charge issues one meter record.
///
/// Charge prices, slices and meters a charge and keeps no record of its
/// own: the meter is the one place a charge is written down. Work that is
/// reused instead of recomputed (a transform-cache hit) re-issues its
/// charges through the same ChargeScopes, so the clock, meter and trace
/// see what a recomputation would have shown them.
class ExecutionContext {
 public:
  ExecutionContext(VirtualClock* clock, const EnergyModel* model, int cores)
      : clock_(clock),
        model_(model),
        cores_(cores),
        max_slice_seconds_(kDefaultMaxSliceSeconds) {}

  /// Executes `work`: advances the clock and records energy on the meter.
  /// Returns the virtual seconds consumed. When the charge is truncated
  /// mid-way (cancellation, or hard-deadline mode), the clock stops at the
  /// last completed slice, the completed fraction of the work is metered,
  /// and Interrupted() turns true — callers unwind with DEADLINE_EXCEEDED.
  double Charge(const Work& work);

  /// Convenience: CPU work with given parallel fraction.
  double ChargeCpu(double flops, double bytes,
                   double parallel_fraction = 0.9);

  /// Convenience: runs on the GPU when one exists (falls back to CPU).
  double ChargeAccelerated(double flops, double bytes);

  double Now() const { return clock_->Now(); }

  /// Deadline handling for budget-bounded search.
  void SetDeadline(double deadline_seconds) { deadline_ = deadline_seconds; }
  void ClearDeadline() {
    deadline_ = std::numeric_limits<double>::infinity();
  }
  double deadline() const { return deadline_; }
  bool DeadlineExceeded() const { return clock_->Now() >= deadline_; }
  double RemainingBudget() const { return deadline_ - clock_->Now(); }

  /// Cooperative cancellation: the token carries the cell's host
  /// deadline (armed by Sweep from the cell time limit, or cancelled
  /// outright); search loops poll Cancelled() at their heads and unwind
  /// with DEADLINE_EXCEEDED.
  void SetCancelToken(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }
  bool Cancelled() const { return cancel_ != nullptr && cancel_->cancelled(); }

  /// True once the context should stop doing work: either the token was
  /// cancelled or a charge was truncated mid-slice. Model fit loops poll
  /// this between units of work (trees, boosting rounds, epochs) so a
  /// cancelled cell unwinds mid-fit, not at the next search head.
  bool Interrupted() const { return charge_truncated_ || Cancelled(); }

  /// True when the most recent Charge stopped before completing all of
  /// its slices. Sticky until the context is destroyed or explicitly
  /// re-armed — for sweep cells a truncated charge means the surrounding
  /// run is being torn down.
  bool charge_truncated() const { return charge_truncated_; }

  /// Re-arms the context after a truncated charge. Long-lived serving
  /// contexts enforce a *per-request* deadline via hard-deadline slicing
  /// and then keep going (degrade, serve the next request); sweep cells
  /// never call this. Does not clear an external CancelToken.
  void ClearChargeTruncation() { charge_truncated_ = false; }

  /// Total charge slices completed on this context. A charge shorter than
  /// the slice bound counts one slice; a cancelled fit completes fewer
  /// slices than the same fit run to completion.
  uint64_t charge_slices() const { return charge_slices_; }

  /// Maximum virtual seconds per charge slice; <= 0 disables slicing.
  /// Defaults to kDefaultMaxSliceSeconds.
  void SetMaxSliceSeconds(double seconds) { max_slice_seconds_ = seconds; }
  double max_slice_seconds() const { return max_slice_seconds_; }

  /// When enabled, sliced charges also stop at the virtual deadline. Off
  /// by default: the paper's budget-overrun semantics (Table 7) require
  /// systems to finish the evaluation that straddles the budget.
  void SetHardDeadline(bool hard) { hard_deadline_ = hard; }
  bool hard_deadline() const { return hard_deadline_; }

  /// Attaches/detaches the meter that receives dynamic-energy records.
  void SetMeter(EnergyMeter* meter) { meter_ = meter; }
  EnergyMeter* meter() const { return meter_; }

  void SetCores(int cores) { cores_ = cores; }
  int cores() const { return cores_; }

  bool HasGpu() const { return model_->machine().has_gpu; }

  /// The '/'-joined path of currently open ChargeScopes; empty at the
  /// root. Charges issued now are attributed to this path.
  const std::string& scope_path() const { return scope_path_; }
  size_t scope_depth() const { return scope_depth_; }

  VirtualClock* clock() const { return clock_; }
  const EnergyModel* model() const { return model_; }

  /// The transform cache runs attach so Pipeline::Fit can memoize fitted
  /// transformer prefixes (null = caching disabled). Not owned.
  void SetTransformCache(TransformCache* cache) { transform_cache_ = cache; }
  TransformCache* transform_cache() const { return transform_cache_; }

  static constexpr double kDefaultMaxSliceSeconds = 0.05;
  static constexpr int kMaxSlicesPerCharge = 4096;

 private:
  friend class ChargeScope;

  /// Appends one segment to the scope path; returns the previous path
  /// length so ChargeScope can restore it on destruction.
  size_t PushScope(std::string_view name);
  void PopScope(size_t previous_length, double entered_at);

  VirtualClock* clock_;       // Not owned.
  const EnergyModel* model_;  // Not owned.
  EnergyMeter* meter_ = nullptr;
  const CancelToken* cancel_ = nullptr;  // Not owned.
  int cores_;
  double deadline_ = std::numeric_limits<double>::infinity();
  double max_slice_seconds_;
  bool hard_deadline_ = false;
  bool charge_truncated_ = false;
  uint64_t charge_slices_ = 0;
  std::string scope_path_;
  size_t scope_depth_ = 0;
  TransformCache* transform_cache_ = nullptr;  // Not owned.
};

/// RAII scope segment: pushes `name` onto the context's scope path for
/// its lifetime. Cheap (string append/resize), safe to nest, and emits
/// enter/exit events to the GREEN_TRACE sink when tracing is on.
///
///   ChargeScope scope(ctx, "search");
///   { ChargeScope fit(ctx, "fit"); ctx->ChargeCpu(...); }  // "search/fit"
class ChargeScope {
 public:
  ChargeScope(ExecutionContext* ctx, std::string_view name);
  ~ChargeScope();

  ChargeScope(const ChargeScope&) = delete;
  ChargeScope& operator=(const ChargeScope&) = delete;

 private:
  ExecutionContext* ctx_;
  size_t previous_length_;
  double entered_at_;
};

}  // namespace green

#endif  // GREEN_SIM_EXECUTION_CONTEXT_H_
