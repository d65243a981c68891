#ifndef GREEN_SERVE_SERVE_POLICY_H_
#define GREEN_SERVE_SERVE_POLICY_H_

#include <cstddef>

#include "green/common/knobs.h"

namespace green {

/// Knobs governing how an InferenceServer trades latency, energy, and
/// answer quality under load. Every field has a GREEN_SERVE_* variable
/// and a --serve-* flag (rows in common/knobs.h; ranges are clamped
/// there).
struct ServePolicy {
  /// What happens when a request's deadline fires mid-predict (or, under
  /// kFail, when an answer would land after the deadline anyway). Values
  /// index knob::kServePolicy's choices.
  enum class DeadlineAction {
    kFail = 0,     ///< Strict SLO: the request fails DEADLINE_EXCEEDED.
    kDegrade = 1,  ///< Answer anyway, from the next cheaper ladder tier.
  };
  /// Which request is shed when the admission queue is full. Values
  /// index knob::kServeShed's choices.
  enum class ShedPolicy {
    kNewest = 0,  ///< Reject the incoming request (tail drop).
    kOldest = 1,  ///< Evict the head of the queue, admit the newcomer.
  };

  /// Admission queue bound (requests). GREEN_SERVE_QUEUE.
  size_t queue_capacity = 64;
  /// Micro-batch size cap. GREEN_SERVE_BATCH.
  size_t max_batch = 8;
  /// How long a freshly opened batch waits for more arrivals (virtual
  /// seconds). GREEN_SERVE_BATCH_DELAY_MS, in ms.
  double batch_delay_seconds = 0.005;
  /// Per-request deadline measured from arrival (virtual seconds);
  /// 0 disables deadlines. GREEN_SERVE_DEADLINE_MS, in ms.
  double deadline_seconds = 0.0;
  /// Per-request dynamic-energy SLO (Joules); 0 disables it. When set,
  /// the server preselects the best ladder tier whose probed
  /// Joules-per-row fits the SLO. GREEN_SERVE_ENERGY_SLO_J.
  double energy_slo_joules = 0.0;
  /// GREEN_SERVE_POLICY: "fail" | "degrade".
  DeadlineAction on_deadline = DeadlineAction::kFail;
  /// GREEN_SERVE_SHED: "newest" | "oldest".
  ShedPolicy shed = ShedPolicy::kNewest;

  /// Assigns the fields whose GREEN_SERVE_* knobs are set.
  void Load(const KnobValues& knobs);
};

}  // namespace green

#endif  // GREEN_SERVE_SERVE_POLICY_H_
