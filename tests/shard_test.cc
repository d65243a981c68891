// Sharded multi-process sweeps: round-robin cell ownership, merge
// rejections, per-shard crash and resume, and journal-health accounting
// (lost appends, truncated tails). Merged shards against a single-process
// sweep are rows of invariance_test.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "green/bench_util/aggregate.h"
#include "green/bench_util/experiment.h"
#include "green/bench_util/invariance.h"
#include "green/bench_util/record_io.h"
#include "green/common/knobs.h"
#include "green/common/shard.h"
#include "green/common/stringutil.h"

namespace green {
namespace {

// --- shard spec ---

Result<ShardSpec> ParseShard(const char* text) {
  Result<KnobValue> parsed = ParseKnob(knob::kShard, text);
  if (!parsed.ok()) return parsed.status();
  return std::get<ShardSpec>(*parsed);
}

TEST(ShardSpecTest, ParseValidSpecs) {
  auto spec = ParseShard("0/1");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->index, 0);
  EXPECT_EQ(spec->count, 1);
  spec = ParseShard("2/4");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->index, 2);
  EXPECT_EQ(spec->count, 4);
  EXPECT_EQ(spec->ToString(), "2/4");
  spec = ParseShard("4095/4096");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->ToString(), "4095/4096");
}

TEST(ShardSpecTest, ParseRejectsGarbage) {
  for (const char* bad :
       {"", "/", "1", "1/", "/3", "a/3", "1/b", "1/3x", "-1/3", "3/3",
        "4/3", "1/0", "0/0", "1/99999", "1/2/3"}) {
    EXPECT_FALSE(ParseShard(bad).ok()) << bad;
  }
  // Surrounding whitespace is trimmed, not rejected.
  EXPECT_TRUE(ParseShard(" 1/3 ").ok());
}

TEST(ShardSpecTest, RoundRobinPartitionsEveryIndexExactlyOnce) {
  for (int count : {1, 2, 3, 5, 8}) {
    for (size_t cell = 0; cell < 100; ++cell) {
      int owners = 0;
      for (int index = 0; index < count; ++index) {
        const ShardSpec shard{index, count};
        ASSERT_TRUE(shard.valid());
        if (shard.Owns(cell)) ++owners;
      }
      EXPECT_EQ(owners, 1) << "cell " << cell << " of " << count;
    }
  }
}

TEST(ShardSpecTest, InvalidSpecsDetected) {
  EXPECT_FALSE((ShardSpec{1, 1}).valid());
  EXPECT_FALSE((ShardSpec{-1, 2}).valid());
  EXPECT_FALSE((ShardSpec{0, 0}).valid());
  EXPECT_TRUE((ShardSpec{0, 1}).valid());
  EXPECT_TRUE((ShardSpec{3, 4}).valid());
}

// --- sharded sweeps ---

class ShardSweepTest : public ::testing::Test {
 protected:
  static ExperimentConfig SmallConfig() {
    ExperimentConfig config;
    config.dataset_limit = 2;
    config.repetitions = 1;
    config.seed = 7;
    return config;
  }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  static std::string ReadFile(const std::string& path) {
    FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return std::string();
    std::string text;
    char buf[65536];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
    return text;
  }
};

TEST_F(ShardSweepTest, InvalidShardConfigRejected) {
  ExperimentConfig config = SmallConfig();
  config.shard_index = 3;
  config.shard_count = 2;
  ExperimentRunner runner(config);
  auto records = runner.Sweep({"caml"}, {10.0});
  EXPECT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(ShardSweepTest, MergeRejectsMissingShard) {
  const std::vector<double> budgets = {10.0, 30.0};
  std::vector<std::string> shard_paths;
  for (int index = 0; index < 2; ++index) {
    ExperimentConfig config = SmallConfig();
    config.shard_index = index;
    config.shard_count = 3;  // Shard 2/3 never runs.
    config.journal_path = TempPath(StrFormat("missing_%d.jsonl", index));
    shard_paths.push_back(config.journal_path);
    ExperimentRunner runner(config);
    ASSERT_TRUE(runner.Sweep({"caml"}, budgets).ok());
  }
  const std::string out = TempPath("missing_merged.jsonl");
  auto merged = MergeShardJournals(shard_paths, out);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.status().ToString().find("missing"),
            std::string::npos);

  // The same shard twice is a duplicate, not a completion.
  auto duplicated = MergeShardJournals(
      {shard_paths[0], shard_paths[0], shard_paths[1]}, out);
  EXPECT_FALSE(duplicated.ok());
  EXPECT_NE(duplicated.status().ToString().find("duplicate"),
            std::string::npos);
  for (const std::string& path : shard_paths) std::remove(path.c_str());
}

TEST_F(ShardSweepTest, MergeRejectsUnshardedJournal) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 1;
  config.journal_path = TempPath("unsharded.jsonl");
  ExperimentRunner runner(config);
  ASSERT_TRUE(runner.Sweep({"caml"}, {10.0}).ok());
  auto merged = MergeShardJournals({config.journal_path},
                                   TempPath("unsharded_merged.jsonl"));
  EXPECT_FALSE(merged.ok());  // No cell indices: not a sharded journal.
  std::remove(config.journal_path.c_str());
}

TEST_F(ShardSweepTest, PerShardCrashResumeThenMergeByteIdentical) {
  const std::vector<std::string> systems = {"caml"};
  const std::vector<double> budgets = {10.0, 30.0};

  ExperimentConfig ref_config = SmallConfig();
  ExperimentRunner reference(ref_config);
  auto expected = reference.Sweep(systems, budgets);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 4u);

  // Shard 0 (owns cells 0 and 2) dies on its second cell...
  ExperimentConfig crash_config = SmallConfig();
  crash_config.shard_index = 0;
  crash_config.shard_count = 2;
  crash_config.journal_path = TempPath("crash_shard0.jsonl");
  std::remove(crash_config.journal_path.c_str());
  crash_config.faults = "sweep.cell#2=abort";
  EXPECT_DEATH(
      {
        ExperimentRunner crashing(crash_config);
        (void)crashing.Sweep(systems, budgets);
      },
      "injected abort");

  // ...and resumes with the fault gone: only the missing cell re-runs.
  ExperimentConfig resume_config = crash_config;
  resume_config.faults.clear();
  resume_config.resume = true;
  ExperimentRunner resumed(resume_config);
  auto shard0 = resumed.Sweep(systems, budgets);
  ASSERT_TRUE(shard0.ok());
  EXPECT_EQ(resumed.last_sweep_resumed_cells(), 1u);

  ExperimentConfig other_config = SmallConfig();
  other_config.shard_index = 1;
  other_config.shard_count = 2;
  other_config.journal_path = TempPath("crash_shard1.jsonl");
  ExperimentRunner other(other_config);
  ASSERT_TRUE(other.Sweep(systems, budgets).ok());

  const std::string merged_path = TempPath("crash_merged.jsonl");
  auto merged = MergeShardJournals(
      {crash_config.journal_path, other_config.journal_path},
      merged_path);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  auto merged_records = ReadRecordsJsonl(merged_path);
  ASSERT_TRUE(merged_records.ok());
  EXPECT_EQ(CompareRecords(*expected, *merged_records).ToString(), "OK");
  std::remove(crash_config.journal_path.c_str());
  std::remove(other_config.journal_path.c_str());
  std::remove(merged_path.c_str());
}

// --- sweep variants (per-cell option overrides) ---

TEST_F(ShardSweepTest, VariantAxisSharesSeedsAndKeepsCellsApart) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 1;
  ExperimentRunner runner(config);
  SweepVariant quad;
  quad.name = "cores=4";
  quad.cores = 4;
  auto records =
      runner.Sweep({"caml"}, {30.0}, {SweepVariant{}, quad});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  const RunRecord& base = (*records)[0];
  const RunRecord& cores4 = (*records)[1];
  EXPECT_EQ(base.variant, "");
  EXPECT_EQ(cores4.variant, "cores=4");
  // Same run seed (variants share split and seeding); the core override
  // must actually reach the execution model.
  EXPECT_NE(base.execution_kwh, cores4.execution_kwh);
  // The default variant's record is byte-identical to a variant-less
  // sweep's (the axis is invisible until used).
  auto plain = runner.Sweep({"caml"}, {30.0});
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->size(), 1u);
  EXPECT_EQ(RecordToJson((*plain)[0]), RecordToJson(base));
  // 4-arg Filter selects by variant.
  EXPECT_EQ(Filter(*records, "caml", 30.0, "cores=4").size(), 1u);
  EXPECT_EQ(Filter(*records, "caml", 30.0, "").size(), 1u);
  EXPECT_EQ(Filter(*records, "caml", 30.0).size(), 2u);
}

TEST_F(ShardSweepTest, DuplicateVariantNamesRejected) {
  ExperimentRunner runner(SmallConfig());
  SweepVariant a;
  a.cores = 2;
  SweepVariant b;
  b.cores = 4;  // Same (empty) name, different settings.
  auto records = runner.Sweep({"caml"}, {10.0}, {a, b});
  EXPECT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), Status::Code::kInvalidArgument);
}

// --- journal health: lost appends, truncated tails ---

class JournalHealthTest : public ShardSweepTest {};

TEST_F(JournalHealthTest, TransientAppendFailureRecoversAtSweepEnd) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 1;
  config.journal_path = TempPath("transient_append.jsonl");
  // Single-shot: the first append fails, the end-of-sweep retry lands.
  config.faults = "journal.append#1=fail";
  ExperimentRunner runner(config);
  auto records = runner.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(runner.last_sweep_journal_append_failures(), 0u);

  auto journal = ReadJournal(config.journal_path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->append_failures, 0u);
  EXPECT_EQ(journal->records.size(), records->size());
  std::remove(config.journal_path.c_str());
}

TEST_F(JournalHealthTest, LostAppendsMarkJournalAndResumeReruns) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 1;
  config.journal_path = TempPath("lost_append.jsonl");
  std::remove(config.journal_path.c_str());

  ExperimentConfig ref_config = config;
  ref_config.journal_path.clear();
  ExperimentRunner reference(ref_config);
  auto expected = reference.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 2u);

  // Probability 1: every append fails, including the retry pass — both
  // records are lost and the journal is marked incomplete.
  ExperimentConfig lossy_config = config;
  lossy_config.faults = "journal.append@1.0=fail";
  ExperimentRunner lossy(lossy_config);
  auto records = lossy.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(lossy.last_sweep_journal_append_failures(), 2u);

  auto journal = ReadJournal(config.journal_path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->records.size(), 0u);
  EXPECT_EQ(journal->append_failures, 2u);

  // A marked-incomplete journal cannot be merged...
  EXPECT_FALSE(MergeShardJournals({config.journal_path},
                                  TempPath("lost_merged.jsonl"))
                   .ok());

  // ...and resume refuses to treat it as complete: the missing cells
  // re-run, and full recovery rewrites the journal clean.
  ExperimentConfig resume_config = config;
  resume_config.resume = true;
  ExperimentRunner resumed(resume_config);
  auto rerun = resumed.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(rerun.ok());
  EXPECT_TRUE(resumed.last_sweep_resumed_from_incomplete_journal());
  EXPECT_EQ(resumed.last_sweep_resumed_cells(), 0u);
  EXPECT_EQ(resumed.last_sweep_journal_append_failures(), 0u);
  EXPECT_EQ(CompareRecords(*expected, *rerun).ToString(), "OK");
  auto recovered = ReadJournal(config.journal_path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->append_failures, 0u);
  EXPECT_EQ(recovered->records.size(), expected->size());
  std::remove(config.journal_path.c_str());
}

TEST_F(JournalHealthTest, CompactionPreservesIncompletenessMarker) {
  const std::string path = TempPath("compact_marker.jsonl");
  RunRecord record;
  record.system = "caml";
  record.dataset = "d";
  record.paper_budget_seconds = 10.0;
  ASSERT_TRUE(AppendRecordJsonl(record, path).ok());
  ASSERT_TRUE(AppendRecordJsonl(record, path).ok());  // Superseded.
  ASSERT_TRUE(AppendJournalIncompleteMarker(3, path).ok());

  auto removed = CompactJournalJsonl(path);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  auto journal = ReadJournal(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->records.size(), 1u);
  EXPECT_EQ(journal->append_failures, 3u);  // Marker survived.
  std::remove(path.c_str());
}

TEST_F(JournalHealthTest, KilledMidAppendResumesByteIdentical) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 2;
  config.journal_path = TempPath("midappend.jsonl");
  std::remove(config.journal_path.c_str());

  ExperimentConfig ref_config = config;
  ref_config.journal_path.clear();
  ExperimentRunner reference(ref_config);
  auto expected = reference.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 4u);

  // The process dies on cell 3, after journaling two complete lines.
  ExperimentConfig crash_config = config;
  crash_config.faults = "sweep.cell#3=abort";
  EXPECT_DEATH(
      {
        ExperimentRunner crashing(crash_config);
        (void)crashing.Sweep({"caml"}, {10.0, 30.0});
      },
      "injected abort");

  // Simulate the kill landing mid-append: chop the tail so the last
  // line loses its closing bytes and its newline. The truncated line
  // STILL PARSES (numeric fields just come back shorter) — which is
  // exactly why resume must drop it instead of trusting it.
  std::string text = ReadFile(config.journal_path);
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  text.resize(text.size() - 10);
  {
    FILE* f = std::fopen(config.journal_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);
  }
  auto damaged = ReadJournal(config.journal_path);
  ASSERT_TRUE(damaged.ok());
  EXPECT_TRUE(damaged->truncated_tail);
  EXPECT_EQ(damaged->records.size(), 1u);  // The partial line is gone.

  // Resume re-runs the dropped cell (and the never-run ones); the final
  // stream is byte-identical to the uninterrupted sweep.
  ExperimentConfig resume_config = config;
  resume_config.resume = true;
  ExperimentRunner resumed(resume_config);
  auto records = resumed.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(resumed.last_sweep_resumed_cells(), 1u);
  EXPECT_EQ(CompareRecords(*expected, *records).ToString(), "OK");
  std::remove(config.journal_path.c_str());
}

}  // namespace
}  // namespace green
