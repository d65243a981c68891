#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>

#include "green/bench_util/record_io.h"

namespace green {
namespace {

RunRecord SampleRecord() {
  RunRecord r;
  r.system = "caml";
  r.dataset = "credit-g";
  r.paper_budget_seconds = 30.0;
  r.repetition = 2;
  r.test_balanced_accuracy = 0.8125;
  r.execution_seconds = 30.89;
  r.execution_kwh = 0.00029;
  r.inference_kwh_per_instance = 4.5e-08;
  r.inference_seconds_per_instance = 1.5e-06;
  r.num_pipelines = 1;
  r.pipelines_evaluated = 17;
  r.best_validation_score = 0.83;
  return r;
}

TEST(RecordIoTest, JsonRoundTrip) {
  const RunRecord original = SampleRecord();
  auto parsed = RecordFromJson(RecordToJson(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->system, original.system);
  EXPECT_EQ(parsed->dataset, original.dataset);
  EXPECT_DOUBLE_EQ(parsed->paper_budget_seconds,
                   original.paper_budget_seconds);
  EXPECT_EQ(parsed->repetition, original.repetition);
  EXPECT_DOUBLE_EQ(parsed->test_balanced_accuracy,
                   original.test_balanced_accuracy);
  EXPECT_DOUBLE_EQ(parsed->execution_kwh, original.execution_kwh);
  EXPECT_DOUBLE_EQ(parsed->inference_kwh_per_instance,
                   original.inference_kwh_per_instance);
  EXPECT_EQ(parsed->num_pipelines, original.num_pipelines);
  EXPECT_EQ(parsed->pipelines_evaluated, original.pipelines_evaluated);
}

TEST(RecordIoTest, JsonEscapesSpecialCharacters) {
  RunRecord r = SampleRecord();
  r.dataset = "weird\"name\\with\nstuff";
  auto parsed = RecordFromJson(RecordToJson(r));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->dataset, r.dataset);
}

TEST(RecordIoTest, HostileNamesRoundTripAndStayValidJson) {
  // Control characters that the old escaper passed through raw, which
  // produced invalid JSON: \t, \r, \b, \f, and arbitrary control bytes.
  const std::vector<std::string> hostile = {
      "tab\there",
      "cr\rlf\n",
      "bell\x07squash\x01\x02",
      "quote\"back\\slash",
      "mix\t\"\\\r\n\f\b\x1f",
      "trailing-backslash\\",
  };
  for (const std::string& name : hostile) {
    RunRecord r = SampleRecord();
    r.dataset = name;
    r.system = name;
    const std::string json = RecordToJson(r);
    // Valid JSON strings contain no raw control characters.
    bool in_string = false;
    bool escaped = false;
    for (char c : json) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control char";
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = !in_string;
      }
    }
    EXPECT_FALSE(in_string) << "unbalanced quotes: " << json;
    auto parsed = RecordFromJson(json);
    ASSERT_TRUE(parsed.ok()) << json;
    EXPECT_EQ(parsed->dataset, name);
    EXPECT_EQ(parsed->system, name);
  }
}

TEST(RecordIoTest, HostileNamesSurviveJsonlFile) {
  std::vector<RunRecord> records = {SampleRecord()};
  records[0].dataset = "line\nbreak\tand\rreturn";
  const std::string path =
      ::testing::TempDir() + "/green_records_hostile.jsonl";
  ASSERT_TRUE(WriteRecordsJsonl(records, path).ok());
  auto loaded = ReadRecordsJsonl(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);  // \n stayed escaped: still one line.
  EXPECT_EQ((*loaded)[0].dataset, records[0].dataset);
}

TEST(RecordIoTest, RejectsMalformedJson) {
  EXPECT_FALSE(RecordFromJson("{}").ok());
  EXPECT_FALSE(RecordFromJson("not json at all").ok());
  EXPECT_FALSE(
      RecordFromJson("{\"system\":\"caml\"}").ok());  // Missing fields.

  // A garbled number is an error naming its field, never a zero (or, for
  // a negative unsigned, 2^64 - 3).
  RunRecord record = SampleRecord();
  record.cell_index = 4;
  record.scopes.push_back(RunScope{"execution/caml", 1e-6, 0.5, 1e6, 3});
  const std::string line = RecordToJson(record);
  ASSERT_TRUE(RecordFromJson(line).ok());
  const std::vector<std::pair<std::string, std::string>> garbled = {
      {"budget_s", "abc"},      {"repetition", "x"},
      {"repetition", "1.5"},    {"repetition", "99999999999"},
      {"num_pipelines", "-3"},  {"num_pipelines", "+3"},
      {"execution_kwh", ""},    {"execution_kwh", "1e-3kWh"},
      {"attempts", "2 x"},      {"cell", "4x"},
      {"charges", "-1"},        {"kwh", "nope"}};
  for (const auto& [field, token] : garbled) {
    const std::string needle = "\"" + field + "\":";
    std::string bad = line;
    const size_t start = bad.find(needle) + needle.size();
    bad.replace(start, bad.find_first_of(",}", start) - start, token);
    const auto parsed = RecordFromJson(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find(field), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(RecordIoTest, JsonlFileRoundTrip) {
  std::vector<RunRecord> records = {SampleRecord(), SampleRecord()};
  records[1].system = "flaml";
  records[1].repetition = 9;
  const std::string path =
      ::testing::TempDir() + "/green_records_test.jsonl";
  ASSERT_TRUE(WriteRecordsJsonl(records, path).ok());
  auto loaded = ReadRecordsJsonl(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].system, "caml");
  EXPECT_EQ((*loaded)[1].system, "flaml");
  EXPECT_EQ((*loaded)[1].repetition, 9);
  EXPECT_FALSE(ReadRecordsJsonl("/nonexistent/records.jsonl").ok());
}

TEST(RecordIoTest, WriteFailingAtCloseIsAnError) {
  // /dev/full accepts the buffered write and fails it at the flush.
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const Status jsonl = WriteRecordsJsonl({SampleRecord()}, "/dev/full");
  EXPECT_EQ(jsonl.code(), Status::Code::kIoError) << jsonl.ToString();
}

TEST(RecordIoTest, UnreadableIncompleteMarkerStillMarksTheJournal) {
  // A marker whose count is not a whole positive decimal is still a
  // marker: at least one append was lost, never none (nor 2^64 - 1).
  for (const std::string count :
       {"x3", "-1", "3x", "", "0", "18446744073709551616"}) {
    const std::string path =
        ::testing::TempDir() + "/green_bad_marker.jsonl";
    RunRecord record = SampleRecord();
    record.cell_index = 0;
    std::ofstream(path) << RecordToJson(record) << "\n{\"journal_incomplete\":"
                        << count << "}\n";

    auto journal = ReadJournal(path);
    ASSERT_TRUE(journal.ok()) << count;
    EXPECT_EQ(journal->records.size(), 1u) << count;
    EXPECT_GE(journal->append_failures, 1u) << count;
    EXPECT_LT(journal->append_failures, 1000u) << count;
    auto merged = MergeShardJournals({path}, path + ".merged");
    ASSERT_FALSE(merged.ok()) << count;
    EXPECT_EQ(merged.status().code(), Status::Code::kFailedPrecondition)
        << count;
  }
}

TEST(RecordIoTest, ReadErrorIsNotAShortFile) {
  // Opening a directory succeeds; reading it fails.
  const auto records = ReadRecordsJsonl(::testing::TempDir());
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), Status::Code::kIoError);
  const auto journal = ReadJournal(::testing::TempDir());
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), Status::Code::kIoError);
}

}  // namespace
}  // namespace green
