#ifndef GREEN_BENCH_UTIL_RECORD_IO_H_
#define GREEN_BENCH_UTIL_RECORD_IO_H_

#include <string>
#include <vector>

#include "green/bench_util/experiment.h"

namespace green {

/// Serialization of experiment records, mirroring the paper's practice of
/// publishing "the raw results of all 10 runs for all search times,
/// datasets, and systems" in its artifact repository, as JSON Lines.

/// One record as a single-line JSON object.
std::string RecordToJson(const RunRecord& record);

/// Parses a single-line JSON object produced by RecordToJson.
Result<RunRecord> RecordFromJson(const std::string& line);

/// Whole-file round trip (one JSON object per line).
Status WriteRecordsJsonl(const std::vector<RunRecord>& records,
                         const std::string& path);
Result<std::vector<RunRecord>> ReadRecordsJsonl(const std::string& path);

/// Appends one record to a JSONL journal: open, write one line, flush,
/// close. One syscall-bounded append per completed sweep cell keeps the
/// journal crash-consistent — a killed process loses at most the cell it
/// was writing.
Status AppendRecordJsonl(const RunRecord& record, const std::string& path);

/// Appends a `{"journal_incomplete":N}` marker line recording that N
/// cell records could not be journaled (append failures that survived
/// the end-of-sweep retry pass). ReadJournal sums the markers so a later
/// --resume knows the journal must not be treated as a complete
/// transcript. Best-effort by nature: if appends are failing, the
/// marker append may fail too.
Status AppendJournalIncompleteMarker(size_t lost_records,
                                     const std::string& path);

/// Replaces the journal at `path` with `records`, plus one consolidated
/// incompleteness marker when `append_failures` > 0, through a temp file
/// and a rename so a crash mid-rewrite cannot lose the journal.
Status ReplaceJournal(const std::string& path,
                      const std::vector<RunRecord>& records,
                      size_t append_failures);

/// What ReadJournal found: the parsed records plus the journal's health.
struct JournalContents {
  std::vector<RunRecord> records;
  /// Sum of `{"journal_incomplete":N}` markers — records a previous
  /// sweep failed to append. > 0 means the journal is known-incomplete.
  size_t append_failures = 0;
  /// The file did not end in a newline: the writer was killed
  /// mid-append and the partial trailing line was discarded.
  bool truncated_tail = false;
};

/// Reads a sweep journal for resume. Unlike ReadRecordsJsonl this is
/// deliberately forgiving: a missing file is an empty journal (first
/// run); a trailing line without a final newline is a crash mid-append
/// and is discarded with a warning EVEN IF it parses (a truncated line
/// can still be field-complete, e.g. "attempts":12 cut to
/// "attempts":1 — accepting it would resume a silently corrupted cell);
/// any other unparseable line is skipped with a warning instead of
/// failing the whole resume.
Result<JournalContents> ReadJournal(const std::string& path);

/// Recombines per-shard sweep journals (any argument order, any
/// per-shard --jobs) into the single record stream an unsharded sweep
/// would have produced. Shard records carry their global enumeration
/// index ("cell"): after per-shard dedupe (later lines supersede
/// earlier, as resume does), the records are ordered by that index,
/// checked for gaps/duplicates — an incomplete or double-owned shard
/// set is an error, not a silently short file — and written with the
/// index stripped, byte-identical to WriteRecordsJsonl of an unsharded
/// Sweep's records. Returns the number of merged records.
Result<size_t> MergeShardJournals(const std::vector<std::string>& shard_paths,
                                  const std::string& out_path);

/// The pure in-memory half of MergeShardJournals, for callers that
/// already hold the shard record lists.
Result<std::vector<RunRecord>> MergeShardRecords(
    std::vector<std::vector<RunRecord>> shards);

/// Rewrites a journal in place keeping only the LAST record per sweep
/// cell (repeated resume cycles append superseding lines). Surviving
/// records keep the order in which their cell first appeared; unparseable
/// lines are dropped like ReadJournal drops them; the rewrite goes
/// through ReplaceJournal. Returns the number of lines removed.
Result<size_t> CompactJournalJsonl(const std::string& path);

}  // namespace green

#endif  // GREEN_BENCH_UTIL_RECORD_IO_H_
