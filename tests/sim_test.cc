#include <gtest/gtest.h>

#include "green/sim/budget_policy.h"
#include "green/sim/execution_context.h"
#include "green/sim/task_scheduler.h"
#include "green/sim/virtual_clock.h"
#include "flops_meter.h"

namespace green {
namespace {

TEST(VirtualClockTest, AdvancesAndResets) {
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0.0);
  clock.Advance(1.5);
  clock.Advance(0.5);
  EXPECT_DOUBLE_EQ(clock.Now(), 2.0);
  clock.Reset();
  EXPECT_EQ(clock.Now(), 0.0);
}

class ExecutionContextTest : public ::testing::Test {
 protected:
  ExecutionContextTest()
      : model_(MachineModel::Minimal()), ctx_(&clock_, &model_, 1) {}

  VirtualClock clock_;
  EnergyModel model_;
  ExecutionContext ctx_;
};

TEST_F(ExecutionContextTest, ChargeAdvancesClock) {
  FlopsMeter metered(&ctx_);
  const double seconds = ctx_.ChargeCpu(2e6, 0.0, 1.0);
  EXPECT_NEAR(seconds, 2.0, 1e-9);
  EXPECT_NEAR(ctx_.Now(), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(metered.flops(), 2e6);
}

TEST_F(ExecutionContextTest, ChargeFeedsMeter) {
  EnergyMeter meter(&model_);
  meter.Start(ctx_.Now());
  ctx_.SetMeter(&meter);
  ctx_.ChargeCpu(1e6, 0.0);
  const EnergyReading r = meter.Stop(ctx_.Now());
  EXPECT_GT(r.breakdown.cpu_dynamic_j, 0.0);
  EXPECT_GT(r.seconds, 0.0);
}

TEST_F(ExecutionContextTest, NoMeterIsFine) {
  EXPECT_GT(ctx_.ChargeCpu(1e5, 0.0), 0.0);  // Must not crash.
}

TEST_F(ExecutionContextTest, DeadlineSemantics) {
  EXPECT_FALSE(ctx_.DeadlineExceeded());  // Infinite by default.
  ctx_.SetDeadline(1.0);
  EXPECT_FALSE(ctx_.DeadlineExceeded());
  EXPECT_NEAR(ctx_.RemainingBudget(), 1.0, 1e-12);
  ctx_.ChargeCpu(2e6, 0.0, 1.0);  // 2 virtual seconds.
  EXPECT_TRUE(ctx_.DeadlineExceeded());
  EXPECT_LT(ctx_.RemainingBudget(), 0.0);
  ctx_.ClearDeadline();
  EXPECT_FALSE(ctx_.DeadlineExceeded());
}

TEST_F(ExecutionContextTest, AcceleratedFallsBackWithoutGpu) {
  EXPECT_FALSE(ctx_.HasGpu());
  EnergyMeter meter(&model_);
  meter.Start(ctx_.Now());
  ctx_.SetMeter(&meter);
  ctx_.ChargeAccelerated(1e6, 0.0);
  const EnergyReading r = meter.Stop(ctx_.Now());
  EXPECT_DOUBLE_EQ(r.scopes.at(kUnscopedPath).flops, 1e6);
  EXPECT_GT(r.breakdown.cpu_dynamic_j, 0.0);
  EXPECT_EQ(r.breakdown.gpu_dynamic_j, 0.0);
}

TEST(ExecutionContextGpuTest, AcceleratedUsesGpu) {
  VirtualClock clock;
  EnergyModel model(MachineModel::GpuNodeT4());
  ExecutionContext ctx(&clock, &model, 1);
  EXPECT_TRUE(ctx.HasGpu());
  EnergyMeter meter(&model);
  meter.Start(ctx.Now());
  ctx.SetMeter(&meter);
  ctx.ChargeAccelerated(1e6, 0.0);
  const EnergyReading r = meter.Stop(ctx.Now());
  EXPECT_DOUBLE_EQ(r.scopes.at(kUnscopedPath).flops, 1e6);
  EXPECT_GT(r.breakdown.gpu_dynamic_j, 0.0);
  EXPECT_EQ(r.breakdown.cpu_dynamic_j, 0.0);
}

TEST(ExecutionContextGpuTest, GpuFasterThanWeakCpu) {
  VirtualClock clock;
  EnergyModel model(MachineModel::GpuNodeT4());
  ExecutionContext ctx(&clock, &model, 1);
  const double gpu_s = ctx.ChargeAccelerated(6e6, 0.0);
  const double cpu_s = ctx.ChargeCpu(6e6, 0.0, 0.98);
  EXPECT_LT(gpu_s, cpu_s);
}

// --- TaskGraphScheduler ---

TEST(SchedulerTest, EmptyBatch) {
  const auto s = TaskGraphScheduler::ScheduleBatch({}, 4);
  EXPECT_EQ(s.makespan_seconds, 0.0);
  EXPECT_EQ(s.busy_core_seconds, 0.0);
}

TEST(SchedulerTest, SingleCoreIsSequential) {
  const auto s = TaskGraphScheduler::ScheduleBatch({1, 2, 3}, 1);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 6.0);
  EXPECT_DOUBLE_EQ(s.busy_core_seconds, 6.0);
  EXPECT_DOUBLE_EQ(s.utilization, 1.0);
}

TEST(SchedulerTest, PerfectParallelism) {
  const auto s = TaskGraphScheduler::ScheduleBatch({2, 2, 2, 2}, 4);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 2.0);
  EXPECT_DOUBLE_EQ(s.utilization, 1.0);
}

TEST(SchedulerTest, LongestTaskBoundsMakespan) {
  const auto s = TaskGraphScheduler::ScheduleBatch({10, 1, 1, 1}, 4);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 10.0);
  EXPECT_LT(s.utilization, 1.0);
}

TEST(SchedulerTest, MoreCoresThanTasks) {
  // Extra cores stay idle; makespan is the longest task and busy time is
  // the plain sum.
  const auto s = TaskGraphScheduler::ScheduleBatch({5.0, 3.0}, 8);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 5.0);
  EXPECT_DOUBLE_EQ(s.busy_core_seconds, 8.0);
  EXPECT_DOUBLE_EQ(s.utilization, 8.0 / (5.0 * 8.0));
}

TEST(SchedulerTest, ZeroLengthTasksContributeNothing) {
  const auto s = TaskGraphScheduler::ScheduleBatch({0.0, 4.0, 0.0, 2.0}, 2);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 4.0);
  EXPECT_DOUBLE_EQ(s.busy_core_seconds, 6.0);
}

TEST(SchedulerTest, AllZeroLengthTasksNoDivisionByZero) {
  const auto s = TaskGraphScheduler::ScheduleBatch({0.0, 0.0, 0.0}, 4);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.busy_core_seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.utilization, 0.0);  // Guarded, not NaN.
}

TEST(SchedulerTest, SingleTaskManyCores) {
  const auto s = TaskGraphScheduler::ScheduleBatch({7.5}, 16);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 7.5);
  EXPECT_DOUBLE_EQ(s.utilization, 1.0 / 16.0);
}

TEST(SchedulerTest, LptSpreadsLongTasks) {
  // LPT puts the two long tasks on different cores. The classic
  // worst-case instance: LPT yields 7 while the optimum is 6 (LPT is a
  // 4/3-approximation) — the scheduler must match LPT exactly.
  const auto s = TaskGraphScheduler::ScheduleBatch({3, 3, 2, 2, 2}, 2);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 7.0);
}

TEST(SchedulerTest, MakespanNeverBelowTheoreticalBounds) {
  const std::vector<double> tasks = {5, 4, 3, 3, 2, 2, 1, 1, 1};
  double total = 0.0;
  double longest = 0.0;
  for (double t : tasks) {
    total += t;
    longest = std::max(longest, t);
  }
  for (int cores = 1; cores <= 8; ++cores) {
    const auto s = TaskGraphScheduler::ScheduleBatch(tasks, cores);
    EXPECT_GE(s.makespan_seconds, longest);
    EXPECT_GE(s.makespan_seconds, total / cores - 1e-9);
    EXPECT_DOUBLE_EQ(s.busy_core_seconds, total);
  }
}

TEST(SchedulerTest, MakespanMonotoneNonIncreasingInCores) {
  const std::vector<double> tasks = {7, 5, 4, 4, 3, 2, 2, 1};
  double prev = 1e300;
  for (int cores = 1; cores <= 8; ++cores) {
    const auto s = TaskGraphScheduler::ScheduleBatch(tasks, cores);
    EXPECT_LE(s.makespan_seconds, prev + 1e-9);
    prev = s.makespan_seconds;
  }
}

// --- MayStartEvaluation ---

TEST(BudgetPolicyTest, StrictRefusesOverrun) {
  const BudgetPolicyKind kind = BudgetPolicyKind::kStrict;
  EXPECT_TRUE(MayStartEvaluation(kind, 0.0, 10.0, 5.0));
  EXPECT_FALSE(MayStartEvaluation(kind, 6.0, 10.0, 5.0));
  EXPECT_TRUE(MayStartEvaluation(kind, 5.0, 10.0, 5.0));
}

TEST(BudgetPolicyTest, FinishLastAllowsStartBeforeDeadline) {
  const BudgetPolicyKind kind = BudgetPolicyKind::kFinishLastEvaluation;
  EXPECT_TRUE(MayStartEvaluation(kind, 9.99, 10.0, 100.0));
  EXPECT_FALSE(MayStartEvaluation(kind, 10.0, 10.0, 0.0));
}

TEST(BudgetPolicyTest, EnsemblingNotCountedBehavesLikeFinishLast) {
  const BudgetPolicyKind kind = BudgetPolicyKind::kEnsemblingNotCounted;
  EXPECT_TRUE(MayStartEvaluation(kind, 9.0, 10.0, 50.0));
  EXPECT_FALSE(MayStartEvaluation(kind, 11.0, 10.0, 0.0));
}

TEST(BudgetPolicyTest, PlannedAndNoBudgetAlwaysRun) {
  EXPECT_TRUE(
      MayStartEvaluation(BudgetPolicyKind::kEstimatedPlan, 100.0, 10.0, 5.0));
  EXPECT_TRUE(
      MayStartEvaluation(BudgetPolicyKind::kNoBudget, 100.0, 10.0, 5.0));
}

}  // namespace
}  // namespace green
