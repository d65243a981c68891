#ifndef GREEN_ML_TRANSFORM_CACHE_H_
#define GREEN_ML_TRANSFORM_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "green/ml/estimator.h"
#include "green/sim/execution_context.h"
#include "green/table/dataset.h"

namespace green {

/// One memoized transformer-chain fit: the fitted transformers and the
/// transformed train set (sharing storage). The charges a hit re-issues
/// are the fitted transformers' own (Transformer::ChargeFit, ChargeFor),
/// so the entry keeps no record of them. `input` pins the source matrix
/// and schema — while the entry lives, neither address can be recycled by
/// a different dataset, which is what makes pointer-identity keys exact.
struct TransformCacheEntry {
  Dataset input;
  /// Fitted instances, shared with every pipeline that adopted them.
  /// Invariant: never re-Fit a cached transformer (Transform is const and
  /// thread-safe; Fit is not).
  std::vector<std::shared_ptr<Transformer>> transformers;
  Dataset transformed;
  size_t bytes = 0;
};

struct TransformCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Always 0: the cache memoizes fitted chains only. Kept because the
  /// benchmark driver (perfbench/perf_bench.cc) still reads them.
  uint64_t predict_hits = 0;
  uint64_t predict_misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  size_t bytes = 0;
};

/// Thread-safe, byte-bounded, LRU-evicting memo of fitted transformer
/// chains, keyed by (dataset storage and schema identity, exact row view,
/// chain config signature). Purely a *host-time* optimization: on a hit the
/// caller re-issues the charges the fitted chain would have issued, through
/// the same ChargeScopes, so every simulated quantity (clock, meter, trace)
/// is bit-identical to recomputing. Failed or interrupted fits are never
/// inserted (same rule the ASKL meta-store follows). Predict-path
/// transforms are recomputed every time: memoizing them cost more memory
/// than the host time it saved.
class TransformCache {
 public:
  explicit TransformCache(size_t max_bytes) : max_bytes_(max_bytes) {}

  TransformCache(const TransformCache&) = delete;
  TransformCache& operator=(const TransformCache&) = delete;

  /// Exact-match lookup (storage pointer + full row-index comparison — a
  /// fingerprint collision can never surface a wrong entry). Returns null
  /// on miss. The returned entry stays valid after eviction.
  std::shared_ptr<const TransformCacheEntry> Lookup(
      const Dataset& input, const std::string& chain_signature);

  /// Memoizes a successfully fitted chain. Oversized entries (larger than
  /// the whole budget) are dropped and counted as evictions. Returns the
  /// admitted entry — the incumbent if a racing insert got there first, or
  /// null when the entry was too large to admit — so the caller can adopt
  /// the shared instance.
  std::shared_ptr<const TransformCacheEntry> Insert(
      const Dataset& input, const std::string& chain_signature,
      std::vector<std::shared_ptr<Transformer>> transformers,
      Dataset transformed);

  TransformCacheStats Stats() const;
  size_t max_bytes() const { return max_bytes_; }

 private:
  using LruList =
      std::list<std::pair<std::string,
                          std::shared_ptr<const TransformCacheEntry>>>;

  static std::string MapKey(const Dataset& input,
                            const std::string& chain_signature);
  static bool SameView(const Dataset& a, const Dataset& b);
  static size_t EstimateBytes(const TransformCacheEntry& entry,
                              const std::string& chain_signature);

  const size_t max_bytes_;
  mutable std::mutex mutex_;
  LruList lru_;  // Front = most recently used.
  std::unordered_map<std::string, LruList::iterator> index_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace green

#endif  // GREEN_ML_TRANSFORM_CACHE_H_
