#ifndef GREEN_COMMON_SHARD_H_
#define GREEN_COMMON_SHARD_H_

#include <cstddef>
#include <string>

namespace green {

/// Deterministic ownership of a slice of a canonically-enumerated work
/// list, for splitting one logical sweep across N independent processes.
///
/// Cells keep their single canonical enumeration order; shard `index` of
/// `count` owns every cell whose global enumeration index is congruent to
/// `index` modulo `count` (round-robin, not contiguous blocks — the sweep
/// enumerates system-major, so contiguous slices would hand one shard all
/// of the cheapest system and another all of the most expensive one).
/// Ownership is a pure function of (cell index, shard spec): any process
/// can recompute which cells belong to which shard without coordination.
struct ShardSpec {
  int index = 0;  ///< This worker's shard, in [0, count).
  int count = 1;  ///< Total shards; 1 = unsharded.

  bool valid() const { return count >= 1 && index >= 0 && index < count; }

  /// True iff this shard owns the cell at `cell_index` in the canonical
  /// enumeration.
  bool Owns(size_t cell_index) const {
    return count <= 1 ||
           cell_index % static_cast<size_t>(count) ==
               static_cast<size_t>(index);
  }

  /// "i/n" (e.g. "0/3"), the form knob::kShard parses.
  std::string ToString() const;
};

}  // namespace green

#endif  // GREEN_COMMON_SHARD_H_
