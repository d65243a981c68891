#include <gtest/gtest.h>

#include <cmath>

#include "green/energy/co2.h"
#include "green/energy/energy_meter.h"
#include "green/energy/energy_model.h"
#include "green/energy/machine_model.h"

namespace green {
namespace {

// --- MachineModel ---

TEST(MachineModelTest, PresetsAreSane) {
  const MachineModel cpu = MachineModel::XeonGold6132();
  EXPECT_EQ(cpu.num_cores, 28);
  EXPECT_FALSE(cpu.has_gpu);
  const MachineModel gpu = MachineModel::GpuNodeT4();
  EXPECT_TRUE(gpu.has_gpu);
  EXPECT_LT(gpu.num_cores, cpu.num_cores);
  // The GPU machine's CPU cores are weaker — the Table 3 setup.
  EXPECT_LT(gpu.cpu_flops_per_core, cpu.cpu_flops_per_core);
}

TEST(MachineModelTest, ThroughputScalesWithCores) {
  const MachineModel m = MachineModel::XeonGold6132();
  EXPECT_DOUBLE_EQ(m.Throughput(Device::kCpu, 2),
                   2.0 * m.Throughput(Device::kCpu, 1));
  // Clamped at the physical core count.
  EXPECT_DOUBLE_EQ(m.Throughput(Device::kCpu, 100),
                   m.Throughput(Device::kCpu, 28));
}

TEST(MachineModelTest, GpuThroughputZeroWithoutGpu) {
  EXPECT_EQ(MachineModel::Minimal().Throughput(Device::kGpu, 1), 0.0);
  EXPECT_GT(MachineModel::GpuNodeT4().Throughput(Device::kGpu, 1), 0.0);
}

// --- EnergyModel ---

Work CpuWork(double flops, double pf = 0.9) {
  Work w;
  w.flops = flops;
  w.parallel_fraction = pf;
  return w;
}

/// Dynamic Joules of `work` on `cores`, priced by a meter (the model only
/// times work; the meter is what turns it into energy).
double DynamicJoules(const EnergyModel& model, const Work& work, int cores) {
  EnergyMeter meter(&model);
  meter.Start(0.0);
  meter.Record(work, model.Execute(work, cores), "work");
  return meter.dynamic_joules();
}

TEST(EnergyModelTest, ZeroWorkIsFree) {
  EnergyModel model(MachineModel::Minimal());
  const WorkExecution exec = model.Execute(Work{}, 1);
  EXPECT_EQ(exec.seconds, 0.0);
  EXPECT_EQ(DynamicJoules(model, Work{}, 1), 0.0);
}

TEST(EnergyModelTest, DurationMatchesThroughputSingleCore) {
  EnergyModel model(MachineModel::Minimal());
  const WorkExecution exec = model.Execute(CpuWork(2.0e6), 1);
  EXPECT_NEAR(exec.seconds, 2.0, 1e-9);
  EXPECT_NEAR(exec.busy_core_seconds, 2.0, 1e-9);
}

TEST(EnergyModelTest, AmdahlSpeedup) {
  MachineModel m = MachineModel::Minimal();
  m.num_cores = 4;
  EnergyModel model(m);
  // parallel fraction 0.5 on 4 cores: T = 0.5 + 0.5/4 = 0.625 of T1.
  const WorkExecution exec1 = model.Execute(CpuWork(1e6, 0.5), 1);
  const WorkExecution exec4 = model.Execute(CpuWork(1e6, 0.5), 4);
  EXPECT_NEAR(exec4.seconds / exec1.seconds, 0.625, 1e-9);
}

TEST(EnergyModelTest, BusyCoreSecondsInvariantInCores) {
  // The key property behind Fig. 5: total busy core-seconds (and hence
  // dynamic energy) of one work item does not depend on the core count.
  MachineModel m = MachineModel::Minimal();
  m.num_cores = 8;
  EnergyModel model(m);
  const Work w = CpuWork(3e6, 0.7);
  const double busy1 = model.Execute(w, 1).busy_core_seconds;
  const double busy8 = model.Execute(w, 8).busy_core_seconds;
  EXPECT_NEAR(busy1, busy8, 1e-9);
}

TEST(EnergyModelTest, DynamicEnergyMonotoneInWork) {
  EnergyModel model(MachineModel::Minimal());
  double prev = 0.0;
  for (double flops = 1e5; flops <= 1e7; flops *= 2) {
    const double j = DynamicJoules(model, CpuWork(flops), 1);
    EXPECT_GT(j, prev);
    prev = j;
  }
}

TEST(EnergyModelTest, GpuWorkRunsOnGpu) {
  EnergyModel model(MachineModel::GpuNodeT4());
  Work w;
  w.flops = 6.0e7;
  w.device = Device::kGpu;
  const WorkExecution exec = model.Execute(w, 1);
  EXPECT_NEAR(exec.seconds, 1.0, 1e-9);
  EXPECT_NEAR(exec.gpu_busy_seconds, 1.0, 1e-9);
  EXPECT_EQ(exec.busy_core_seconds, 0.0);
}

TEST(EnergyModelTest, GpuWorkFallsBackToCpu) {
  EnergyModel model(MachineModel::Minimal());
  Work w;
  w.flops = 1e6;
  w.device = Device::kGpu;
  const WorkExecution exec = model.Execute(w, 1);
  EXPECT_GT(exec.busy_core_seconds, 0.0);
  EXPECT_EQ(exec.gpu_busy_seconds, 0.0);
}

TEST(EnergyModelTest, DramEnergyCharged) {
  EnergyModel model(MachineModel::Minimal());
  Work w = CpuWork(1e6);
  w.bytes = 1e9;
  const double with_bytes = DynamicJoules(model, w, 1);
  w.bytes = 0;
  const double without = DynamicJoules(model, w, 1);
  EXPECT_NEAR(with_bytes - without,
              MachineModel::Minimal().dram_joules_per_byte * 1e9, 1e-9);
}

// --- EnergyBreakdown ---

TEST(EnergyBreakdownTest, Totals) {
  EnergyBreakdown a;
  a.cpu_dynamic_j = 1.0;
  a.cpu_static_j = 2.0;
  a.dram_j = 3.0;
  a.gpu_dynamic_j = 4.0;
  a.gpu_idle_j = 5.0;
  EXPECT_DOUBLE_EQ(a.TotalJoules(), 15.0);
  EXPECT_DOUBLE_EQ(a.TotalKwh(), 15.0 / 3.6e6);
}

// --- EnergyMeter ---

TEST(EnergyMeterTest, StaticPowerChargedOverScope) {
  EnergyModel model(MachineModel::Minimal());
  EnergyMeter meter(&model);
  meter.Start(10.0);
  const EnergyReading r = meter.Stop(20.0);
  EXPECT_NEAR(r.seconds, 10.0, 1e-12);
  EXPECT_NEAR(r.breakdown.cpu_static_j,
              10.0 * MachineModel::Minimal().cpu_static_watts, 1e-9);
  EXPECT_EQ(r.breakdown.cpu_dynamic_j, 0.0);
}

TEST(EnergyMeterTest, DynamicAttribution) {
  EnergyModel model(MachineModel::Minimal());
  EnergyMeter meter(&model);
  meter.Start(0.0);
  Work w = CpuWork(1e6);
  meter.Record(w, model.Execute(w, 1), "fit");
  const EnergyReading r = meter.Stop(1.0);
  EXPECT_GT(r.breakdown.cpu_dynamic_j, 0.0);
}

TEST(EnergyMeterTest, PeekDoesNotStop) {
  EnergyModel model(MachineModel::Minimal());
  EnergyMeter meter(&model);
  meter.Start(0.0);
  const EnergyReading mid = meter.Peek(5.0);
  EXPECT_TRUE(meter.running());
  const EnergyReading end = meter.Stop(10.0);
  EXPECT_NEAR(end.seconds, 2.0 * mid.seconds, 1e-12);
}

TEST(EnergyMeterTest, GpuIdleChargedOnGpuMachine) {
  EnergyModel model(MachineModel::GpuNodeT4());
  EnergyMeter meter(&model);
  meter.Start(0.0);
  const EnergyReading r = meter.Stop(10.0);
  EXPECT_NEAR(r.breakdown.gpu_idle_j,
              10.0 * MachineModel::GpuNodeT4().gpu_idle_watts, 1e-9);
}

TEST(EnergyMeterTest, ReadingAccumulates) {
  // Records on one path add up in the reading's flat breakdown and in
  // that path's scope charge alike.
  EnergyModel model(MachineModel::Minimal());
  EnergyMeter meter(&model);
  meter.Start(0.0);
  const Work w = CpuWork(1e6);
  meter.Record(w, model.Execute(w, 1), "fit");
  const double once = meter.dynamic_joules();
  meter.Record(w, model.Execute(w, 1), "fit");
  const EnergyReading r = meter.Stop(0.0);
  EXPECT_DOUBLE_EQ(r.joules(), 2.0 * once);
  ASSERT_EQ(r.scopes.size(), 1u);
  EXPECT_DOUBLE_EQ(r.scopes.at("fit").joules, 2.0 * once);
  EXPECT_EQ(r.scopes.at("fit").charges, 2u);
}

// --- CO2 ---

TEST(Co2Test, PaperConstants) {
  const EmissionFactors f = EmissionFactors::Germany2023();
  EXPECT_DOUBLE_EQ(f.kg_co2_per_kwh, 0.222);
  EXPECT_DOUBLE_EQ(f.eur_per_kwh, 0.20);
}

TEST(Co2Test, ImpactEstimate) {
  // Table 4's TabPFN row: 404,649 kWh -> ~89,832 kg CO2 and ~80,930 EUR.
  const ImpactEstimate impact =
      EstimateImpact(404649.0, EmissionFactors::Germany2023());
  EXPECT_NEAR(impact.kg_co2, 89832.0, 10.0);
  EXPECT_NEAR(impact.eur, 80929.8, 1.0);
}

TEST(Co2Test, AmortizationMatchesPaper) {
  // §3.7: 21 kWh of development amortize over ~885 runs, i.e. the tuned
  // system must save ~0.0237 kWh per run.
  EXPECT_NEAR(AmortizationRuns(21.0, 21.0 / 885.0), 885.0, 1e-6);
  EXPECT_TRUE(std::isinf(AmortizationRuns(21.0, 0.0)));
}

// --- Parameterized property: energy monotone in work for any machine ---

class EnergyMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(EnergyMonotoneTest, MoreWorkNeverCheaper) {
  const double parallel_fraction = GetParam();
  for (const MachineModel& m :
       {MachineModel::Minimal(), MachineModel::XeonGold6132(),
        MachineModel::GpuNodeT4()}) {
    EnergyModel model(m);
    double prev_j = -1.0;
    double prev_s = -1.0;
    for (double flops = 1e4; flops <= 1e8; flops *= 10) {
      Work w;
      w.flops = flops;
      w.parallel_fraction = parallel_fraction;
      const WorkExecution exec = model.Execute(w, m.num_cores);
      const double joules = DynamicJoules(model, w, m.num_cores);
      EXPECT_GT(joules, prev_j);
      EXPECT_GT(exec.seconds, prev_s);
      prev_j = joules;
      prev_s = exec.seconds;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ParallelFractions, EnergyMonotoneTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.9, 1.0));

}  // namespace
}  // namespace green
