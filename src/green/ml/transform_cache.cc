#include "green/ml/transform_cache.h"

#include "green/common/stringutil.h"

namespace green {

std::string TransformCache::MapKey(const Dataset& input,
                                   const std::string& chain_signature) {
  return StrFormat("%p|%p|%zu|%zu|%016llx|", input.StorageId(),
                   static_cast<const void*>(input.schema().get()),
                   input.num_rows(), input.num_features(),
                   static_cast<unsigned long long>(input.ViewFingerprint())) +
         chain_signature;
}

bool TransformCache::SameView(const Dataset& a, const Dataset& b) {
  const std::vector<size_t>* ia = a.RowIndex();
  const std::vector<size_t>* ib = b.RowIndex();
  if (ia == ib) return true;  // Same index object, or both contiguous.
  if (ia == nullptr || ib == nullptr) {
    // One contiguous, one indexed: equal only if the index is the
    // identity over the same row count (fingerprints differ then anyway —
    // treat as distinct, a miss just refits).
    return false;
  }
  return *ia == *ib;
}

size_t TransformCache::EstimateBytes(const TransformCacheEntry& entry,
                                     const std::string& chain_signature) {
  size_t bytes = sizeof(TransformCacheEntry) + chain_signature.size();
  // Transformed matrix; counted dense even when it still shares the input
  // storage (conservative over-estimate keeps the bound honest).
  bytes += static_cast<size_t>(entry.transformed.FeatureBytes());
  // Labels, plus the targets a regression table carries beside them.
  bytes += entry.transformed.num_rows() * sizeof(int) +
           entry.transformed.targets().size() * sizeof(double);
  // Pinned input view: row index, labels and targets.
  bytes += entry.input.num_rows() * (sizeof(size_t) + sizeof(int)) +
           entry.input.targets().size() * sizeof(double);
  bytes += entry.transformers.size() * 256;  // Fitted-state ballpark.
  return bytes;
}

std::shared_ptr<const TransformCacheEntry> TransformCache::Lookup(
    const Dataset& input, const std::string& chain_signature) {
  const std::string key = MapKey(input, chain_signature);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end() || !SameView(it->second->second->input, input)) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // Mark most recently used.
  ++hits_;
  return it->second->second;
}

std::shared_ptr<const TransformCacheEntry> TransformCache::Insert(
    const Dataset& input, const std::string& chain_signature,
    std::vector<std::shared_ptr<Transformer>> transformers,
    Dataset transformed) {
  auto entry = std::make_shared<TransformCacheEntry>();
  entry->input = input;
  entry->transformers = std::move(transformers);
  entry->transformed = std::move(transformed);
  entry->bytes = EstimateBytes(*entry, chain_signature);

  std::string key = MapKey(input, chain_signature);
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry->bytes > max_bytes_) {
    ++evictions_;  // Bigger than the whole budget: never admitted.
    return nullptr;
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Racing inserts of the same chain (parallel sweeps): keep the
    // incumbent, it is already shared with other pipelines.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(std::move(key), std::move(entry));
  index_[lru_.front().first] = lru_.begin();
  bytes_ += lru_.front().second->bytes;
  ++insertions_;
  std::shared_ptr<const TransformCacheEntry> admitted = lru_.front().second;
  while (bytes_ > max_bytes_ && lru_.size() > 1) {
    const auto& victim = lru_.back();
    bytes_ -= victim.second->bytes;
    index_.erase(victim.first);
    lru_.pop_back();
    ++evictions_;
  }
  return admitted;
}

TransformCacheStats TransformCache::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TransformCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.insertions = insertions_;
  stats.evictions = evictions_;
  stats.entries = lru_.size();
  stats.bytes = bytes_;
  return stats;
}

}  // namespace green
