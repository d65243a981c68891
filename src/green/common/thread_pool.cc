#include "green/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace green {

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(size_t n, int jobs, const std::function<void(size_t)>& fn) {
  if (jobs <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  const size_t workers = std::min(static_cast<size_t>(jobs), n);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      size_t i;
      while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace green
