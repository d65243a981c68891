#ifndef GREEN_COMMON_RETRY_H_
#define GREEN_COMMON_RETRY_H_

#include "green/common/status.h"

namespace green {

/// Retry policy for transient per-cell failures in the experiment
/// harness. A retry re-runs the cell at once on a fresh virtual clock, so
/// retried and unretried sweeps cost the same wall time.
struct RetryPolicy {
  /// Total tries including the first. 1 disables retries.
  int max_attempts = 2;
};

/// Whether a failure class is worth retrying. Transient infrastructure
/// errors (INTERNAL, IO_ERROR, RESOURCE_EXHAUSTED) are; semantic
/// rejections (INVALID_ARGUMENT, UNIMPLEMENTED, ...) and deadline
/// expiries are not — a timed-out cell would only time out again.
bool IsRetryable(const Status& status);

}  // namespace green

#endif  // GREEN_COMMON_RETRY_H_
