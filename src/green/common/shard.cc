#include "green/common/shard.h"

#include "green/common/stringutil.h"

namespace green {

std::string ShardSpec::ToString() const {
  return StrFormat("%d/%d", index, count);
}

}  // namespace green
