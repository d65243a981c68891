#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "green/common/thread_pool.h"

namespace green {
namespace {

TEST(ThreadPoolTest, DefaultThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ParallelForTest, TasksRunConcurrently) {
  std::mutex mu;
  std::set<std::thread::id> seen;
  std::atomic<int> done{0};
  ParallelFor(200, 4, [&](size_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 200);
  // 200 x 100us of sleeping across 4 workers: more than one thread must
  // have participated.
  EXPECT_GT(seen.size(), 1u);
}

TEST(ParallelForTest, BlockedIndexDoesNotHoldBackOthers) {
  // Index 0 waits until every other index has run. With indices claimed
  // one at a time, the second thread runs all of them; a static split
  // that queued some behind index 0 would time the wait out instead.
  constexpr size_t kN = 16;
  std::atomic<size_t> others_done{0};
  bool all_others_ran = false;
  ParallelFor(kN, 2, [&](size_t i) {
    if (i != 0) {
      others_done.fetch_add(1, std::memory_order_acq_rel);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (others_done.load(std::memory_order_acquire) < kN - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    all_others_ran = others_done.load(std::memory_order_acquire) == kN - 1;
  });
  EXPECT_TRUE(all_others_ran);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(333);
  ParallelFor(hits.size(), 4,
              [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SingleJobRunsInlineInOrder) {
  std::vector<size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  bool all_on_caller = true;
  ParallelFor(16, 1, [&](size_t i) {
    order.push_back(i);
    all_on_caller &= std::this_thread::get_id() == caller;
  });
  ASSERT_EQ(order.size(), 16u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(all_on_caller);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  int calls = 0;
  ParallelFor(0, 8, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, MoreJobsThanItems) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(hits.size(), 64,
              [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace green
