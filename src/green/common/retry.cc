#include "green/common/retry.h"

namespace green {

bool IsRetryable(const Status& status) {
  switch (status.code()) {
    case Status::Code::kInternal:
    case Status::Code::kIoError:
    case Status::Code::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

}  // namespace green
