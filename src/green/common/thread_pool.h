#ifndef GREEN_COMMON_THREAD_POOL_H_
#define GREEN_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace green {

/// Holds no pool, only the host's default worker count. The class keeps
/// the name ThreadPool::DefaultThreads() because perfbench/perf_bench.cc,
/// whose source is pinned with the benchmark, calls it; ROADMAP lists the
/// rename to a free function for the next change to the benchmark.
class ThreadPool {
 public:
  /// std::thread::hardware_concurrency with a floor of 1.
  static int DefaultThreads();
};

/// Runs fn(i) for every i in [0, n) on min(jobs, n) threads. Each thread
/// claims the next unclaimed index from one shared atomic counter, so
/// indices start in ascending order and a slow index never holds back
/// the others. jobs <= 1 (or n <= 1) runs inline on the calling thread —
/// byte-identical behavior to a plain loop, no threads spawned. `fn`
/// must be safe to invoke concurrently for distinct indices.
void ParallelFor(size_t n, int jobs, const std::function<void(size_t)>& fn);

}  // namespace green

#endif  // GREEN_COMMON_THREAD_POOL_H_
