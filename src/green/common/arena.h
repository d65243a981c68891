#ifndef GREEN_COMMON_ARENA_H_
#define GREEN_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace green {

/// Bump allocator for per-trial kernel scratch (node row lists, presorted
/// feature indices, distance blocks). Allocation is a pointer bump;
/// deallocation is wholesale — either Reset() back to empty or an
/// ArenaScope rewinding to a watermark. Blocks are retained across
/// Reset/rewind, so repeated fits inside a search loop stop hitting the
/// global allocator after the first trial warms the arena up.
///
/// Trivially-destructible payloads only: the arena never runs
/// destructors. Not thread-safe — use ScratchArena() for a per-thread
/// instance.
class Arena {
 public:
  explicit Arena(size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes < kMinBlockBytes ? kMinBlockBytes
                                                  : block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw aligned allocation. `align` must be a power of two.
  void* Alloc(size_t bytes, size_t align = alignof(std::max_align_t));

  /// Uninitialized array of a trivially-destructible T.
  template <typename T>
  T* AllocArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return static_cast<T*>(Alloc(n * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty, keeping every block for reuse.
  void Reset();

  /// Position marker for nested scopes (see ArenaScope).
  struct Mark {
    size_t block = 0;
    size_t offset = 0;
  };
  Mark CurrentMark() const { return {current_block_, offset_}; }
  void Rewind(const Mark& mark);

  /// Bytes handed out since the last Reset (diagnostic).
  size_t allocated_bytes() const { return allocated_bytes_; }
  /// Bytes of block capacity held (diagnostic; survives Reset).
  size_t reserved_bytes() const;
  size_t block_count() const { return blocks_.size(); }

  static constexpr size_t kDefaultBlockBytes = size_t{1} << 20;
  static constexpr size_t kMinBlockBytes = 4096;

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
  };

  size_t block_bytes_;
  std::vector<Block> blocks_;
  size_t current_block_ = 0;  ///< Index of the block being bumped.
  size_t offset_ = 0;         ///< Bump offset within the current block.
  size_t allocated_bytes_ = 0;
};

/// RAII watermark: everything the arena hands out during this scope's
/// lifetime is reclaimed (not destructed) when the scope closes. Scopes
/// nest — a forest-level scope can wrap per-tree scopes.
class ArenaScope {
 public:
  explicit ArenaScope(Arena* arena)
      : arena_(arena), mark_(arena->CurrentMark()) {}
  ~ArenaScope() { arena_->Rewind(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* arena_;
  Arena::Mark mark_;
};

/// The calling thread's scratch arena (lazily constructed, lives for the
/// thread). Sweep workers each get their own, so kernel scratch never
/// crosses threads.
Arena* ScratchArena();

}  // namespace green

#endif  // GREEN_COMMON_ARENA_H_
