#include "green/bench_util/record_io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <type_traits>

#include "green/common/logging.h"
#include "green/common/stringutil.h"

namespace green {

namespace {

/// JSON string escaping for our field values. Every control character is
/// escaped (RFC 8259 requires it — a raw \t or \r in a dataset name would
/// emit invalid JSON); Unescape below inverts this exactly.
std::string Escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (c < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Extracts the raw token after `"key":` in a flat one-line JSON object.
/// Good enough for the records this library itself writes.
Result<std::string> ExtractField(const std::string& line,
                                 const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return Status::NotFound("missing field: " + key);
  }
  size_t start = pos + needle.size();
  while (start < line.size() && line[start] == ' ') ++start;
  if (start >= line.size()) return Status::NotFound("truncated: " + key);
  if (line[start] == '"') {
    // String value: scan to the closing unescaped quote, inverting every
    // sequence Escape emits.
    std::string out;
    for (size_t i = start + 1; i < line.size(); ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) {
        const char c = line[++i];
        switch (c) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (i + 4 >= line.size()) {
              return Status::InvalidArgument("truncated \\u escape: " +
                                             key);
            }
            const unsigned long code =
                std::strtoul(line.substr(i + 1, 4).c_str(), nullptr, 16);
            // Escape only emits \u00XX for control bytes.
            out += static_cast<char>(code & 0xFF);
            i += 4;
            break;
          }
          default:
            out += c;  // \" \\ and \/ pass through.
        }
      } else if (line[i] == '"') {
        return out;
      } else {
        out += line[i];
      }
    }
    return Status::InvalidArgument("unterminated string: " + key);
  }
  size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return std::string(Trim(line.substr(start, end - start)));
}

/// Reads the number after `"key":` into `out`. The whole non-empty
/// token must parse and fit `T`, and unsigned fields take no sign: a
/// garbled number makes the line malformed instead of loading as 0 (or,
/// for "-3" in an unsigned field, as 2^64 - 3).
template <typename T>
Status ReadNumber(const std::string& json, const std::string& key, T* out) {
  GREEN_ASSIGN_OR_RETURN(const std::string token, ExtractField(json, key));
  const char* begin = token.c_str();
  char* end = const_cast<char*>(begin);
  errno = 0;
  if constexpr (std::is_floating_point_v<T>) {
    *out = std::strtod(begin, &end);
  } else if constexpr (std::is_unsigned_v<T>) {
    if (std::isdigit(static_cast<unsigned char>(token[0]))) {
      *out = std::strtoull(begin, &end, 10);
    }
  } else {
    const long long value = std::strtoll(begin, &end, 10);
    *out = static_cast<T>(value);
    if (*out != value) errno = ERANGE;
  }
  const bool out_of_range = !std::is_floating_point_v<T> && errno == ERANGE;
  if (token.empty() || end != begin + token.size() || out_of_range) {
    return Status::InvalidArgument("malformed number in \"" + key +
                                   "\": " + token);
  }
  return Status::Ok();
}

/// The whole file at `path`. A file that cannot be opened is an error,
/// or empty text under `missing_ok` (a journal's first run).
Result<std::string> ReadWholeFile(const std::string& path, bool missing_ok) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    if (missing_ok) return std::string();
    return Status::IoError("cannot open " + path);
  }
  std::string text;
  char buf[65536];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_failed = std::ferror(f) != 0;
  std::fclose(f);
  if (read_failed) return Status::IoError("read failed: " + path);
  return text;
}

/// Writes `text` to `path` opened in `mode` ("w" or "a") with one write
/// and an explicit flush, so an append is one syscall-bounded line. The
/// close is checked too: a full device often fails only there.
Status WriteWholeText(const std::string& path, const char* mode,
                      const std::string& text) {
  FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr) return Status::IoError("cannot open " + path);
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool flushed = written && std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!written) return Status::IoError("short write to " + path);
  if (!flushed) return Status::IoError("flush failed for " + path);
  if (!closed) return Status::IoError("write failed at close: " + path);
  return Status::Ok();
}

/// Reads a `{"journal_incomplete":N}` marker's count; false if the line
/// is no marker. The marker itself means appends were lost, so a count
/// that is not a whole positive decimal counts as one lost append, not
/// as none (nor as 2^64 - 1).
bool ParseIncompleteMarker(const std::string& line, size_t* count) {
  if (line.find("\"journal_incomplete\":") == std::string::npos) return false;
  if (!ReadNumber(line, "journal_incomplete", count).ok() || *count == 0) {
    LogWarning("unreadable journal incompleteness marker " + line +
               ": counting one lost append");
    *count = 1;
  }
  return true;
}

/// Resume's superseding rule as a standalone pass: later records replace
/// earlier ones with the same cell key, each cell keeping its
/// first-appearance position. `removed` (optional) counts superseded
/// lines.
std::vector<RunRecord> DedupeByCellKey(std::vector<RunRecord> records,
                                       size_t* removed) {
  std::map<std::string, size_t> slot;  // Cell key -> index into `kept`.
  std::vector<RunRecord> kept;
  if (removed != nullptr) *removed = 0;
  for (RunRecord& record : records) {
    const std::string key = RunRecordCellKey(record);
    auto it = slot.find(key);
    if (it == slot.end()) {
      slot.emplace(key, kept.size());
      kept.push_back(std::move(record));
    } else {
      kept[it->second] = std::move(record);
      if (removed != nullptr) ++*removed;
    }
  }
  return kept;
}

}  // namespace

std::string RecordToJson(const RunRecord& record) {
  std::string out = StrFormat(
      "{\"system\":\"%s\",\"dataset\":\"%s\",\"budget_s\":%.6g,"
      "\"repetition\":%d,\"balanced_accuracy\":%.10g,"
      "\"execution_seconds\":%.10g,\"execution_kwh\":%.10g,"
      "\"inference_kwh_per_instance\":%.10g,"
      "\"inference_seconds_per_instance\":%.10g,\"num_pipelines\":%zu,"
      "\"pipelines_evaluated\":%d,\"best_validation_score\":%.10g,"
      "\"outcome\":\"%s\",\"error\":\"%s\",\"attempts\":%d",
      Escape(record.system).c_str(), Escape(record.dataset).c_str(),
      record.paper_budget_seconds, record.repetition,
      record.test_balanced_accuracy, record.execution_seconds,
      record.execution_kwh, record.inference_kwh_per_instance,
      record.inference_seconds_per_instance, record.num_pipelines,
      record.pipelines_evaluated, record.best_validation_score,
      RunOutcomeName(record.outcome), Escape(record.error).c_str(),
      record.attempts);
  // Every field below is emitted only when present, so records written
  // without the corresponding feature stay byte-identical to files
  // produced before the feature existed.
  if (record.task == TaskType::kRegression) {
    // Classification cells (binary AND multiclass) omit the task triple:
    // their metric has always been balanced accuracy, and emitting it
    // would perturb every pre-existing record stream.
    out += StrFormat(",\"task\":\"%s\",\"metric\":\"%s\","
                     "\"test_metric\":%.10g",
                     TaskTypeName(record.task),
                     Escape(record.metric_name).c_str(),
                     record.test_metric);
  }
  if (!record.variant.empty()) {
    out += StrFormat(",\"variant\":\"%s\"",
                     Escape(record.variant).c_str());
  }
  if (record.cell_index >= 0) {
    out += StrFormat(",\"cell\":%lld",
                     static_cast<long long>(record.cell_index));
  }
  if (!record.scopes.empty()) {
    out += ",\"scopes\":[";
    for (size_t i = 0; i < record.scopes.size(); ++i) {
      const RunScope& s = record.scopes[i];
      if (i > 0) out += ',';
      out += StrFormat(
          "{\"path\":\"%s\",\"kwh\":%.10g,\"seconds\":%.10g,"
          "\"flops\":%.10g,\"charges\":%llu}",
          Escape(s.path).c_str(), s.kwh, s.seconds, s.flops,
          static_cast<unsigned long long>(s.charges));
    }
    out += ']';
  }
  out += '}';
  return out;
}

Result<RunRecord> RecordFromJson(const std::string& line) {
  RunRecord record;
  GREEN_ASSIGN_OR_RETURN(record.system, ExtractField(line, "system"));
  GREEN_ASSIGN_OR_RETURN(record.dataset, ExtractField(line, "dataset"));
  GREEN_RETURN_IF_ERROR(
      ReadNumber(line, "budget_s", &record.paper_budget_seconds));
  GREEN_RETURN_IF_ERROR(ReadNumber(line, "repetition", &record.repetition));
  GREEN_RETURN_IF_ERROR(ReadNumber(line, "balanced_accuracy",
                                   &record.test_balanced_accuracy));
  GREEN_RETURN_IF_ERROR(
      ReadNumber(line, "execution_seconds", &record.execution_seconds));
  GREEN_RETURN_IF_ERROR(
      ReadNumber(line, "execution_kwh", &record.execution_kwh));
  GREEN_RETURN_IF_ERROR(ReadNumber(line, "inference_kwh_per_instance",
                                   &record.inference_kwh_per_instance));
  GREEN_RETURN_IF_ERROR(ReadNumber(line, "inference_seconds_per_instance",
                                   &record.inference_seconds_per_instance));
  GREEN_RETURN_IF_ERROR(
      ReadNumber(line, "num_pipelines", &record.num_pipelines));
  GREEN_RETURN_IF_ERROR(
      ReadNumber(line, "pipelines_evaluated", &record.pipelines_evaluated));
  GREEN_RETURN_IF_ERROR(ReadNumber(line, "best_validation_score",
                                   &record.best_validation_score));
  // Taxonomy fields are optional so files written before the outcome
  // taxonomy existed still parse (as successful single-attempt cells).
  Result<std::string> outcome = ExtractField(line, "outcome");
  if (outcome.ok()) {
    GREEN_ASSIGN_OR_RETURN(record.outcome, RunOutcomeFromName(*outcome));
    GREEN_ASSIGN_OR_RETURN(record.error, ExtractField(line, "error"));
    GREEN_RETURN_IF_ERROR(ReadNumber(line, "attempts", &record.attempts));
  }
  // The task triple is optional: absent means a classification cell
  // (the default), where test_metric mirrors balanced accuracy.
  Result<std::string> task = ExtractField(line, "task");
  if (task.ok()) {
    GREEN_ASSIGN_OR_RETURN(record.task, ParseTaskType(*task));
    GREEN_ASSIGN_OR_RETURN(record.metric_name,
                           ExtractField(line, "metric"));
    GREEN_RETURN_IF_ERROR(
        ReadNumber(line, "test_metric", &record.test_metric));
  } else {
    record.test_metric = record.test_balanced_accuracy;
  }
  // Variant and shard cell index are optional like the taxonomy fields.
  Result<std::string> variant = ExtractField(line, "variant");
  if (variant.ok()) record.variant = std::move(variant).value();
  if (ExtractField(line, "cell").ok()) {
    GREEN_RETURN_IF_ERROR(ReadNumber(line, "cell", &record.cell_index));
  }
  // The scopes array is optional (written only under --breakdown).
  // Scope paths are '/'-joined operator names, never braces, so each
  // element is delimited by the next '}'.
  const size_t scopes_pos = line.find("\"scopes\":[");
  if (scopes_pos != std::string::npos) {
    size_t cursor = scopes_pos + std::strlen("\"scopes\":[");
    while (cursor < line.size() && line[cursor] != ']') {
      const size_t open = line.find('{', cursor);
      if (open == std::string::npos) break;
      const size_t close = line.find('}', open);
      if (close == std::string::npos) {
        return Status::InvalidArgument("unterminated scope entry");
      }
      const std::string entry = line.substr(open, close - open + 1);
      RunScope s;
      GREEN_ASSIGN_OR_RETURN(s.path, ExtractField(entry, "path"));
      GREEN_RETURN_IF_ERROR(ReadNumber(entry, "kwh", &s.kwh));
      GREEN_RETURN_IF_ERROR(ReadNumber(entry, "seconds", &s.seconds));
      GREEN_RETURN_IF_ERROR(ReadNumber(entry, "flops", &s.flops));
      GREEN_RETURN_IF_ERROR(ReadNumber(entry, "charges", &s.charges));
      record.scopes.push_back(std::move(s));
      cursor = close + 1;
    }
  }
  return record;
}

Status WriteRecordsJsonl(const std::vector<RunRecord>& records,
                         const std::string& path) {
  std::string text;
  for (const RunRecord& record : records) text += RecordToJson(record) + "\n";
  return WriteWholeText(path, "w", text);
}

Result<std::vector<RunRecord>> ReadRecordsJsonl(const std::string& path) {
  GREEN_ASSIGN_OR_RETURN(const std::string text,
                         ReadWholeFile(path, /*missing_ok=*/false));
  std::vector<RunRecord> records;
  for (const std::string& line : Split(text, '\n')) {
    if (Trim(line).empty()) continue;
    GREEN_ASSIGN_OR_RETURN(RunRecord record, RecordFromJson(line));
    records.push_back(std::move(record));
  }
  return records;
}

Status AppendRecordJsonl(const RunRecord& record, const std::string& path) {
  return WriteWholeText(path, "a", RecordToJson(record) + "\n");
}

Status AppendJournalIncompleteMarker(size_t lost_records,
                                     const std::string& path) {
  return WriteWholeText(
      path, "a", StrFormat("{\"journal_incomplete\":%zu}\n", lost_records));
}

Status ReplaceJournal(const std::string& path,
                      const std::vector<RunRecord>& records,
                      size_t append_failures) {
  const std::string tmp = path + ".rewrite.tmp";
  Status replaced = WriteRecordsJsonl(records, tmp);
  if (replaced.ok() && append_failures > 0) {
    replaced = AppendJournalIncompleteMarker(append_failures, tmp);
  }
  if (replaced.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    replaced = Status::IoError("cannot replace " + path);
  }
  if (!replaced.ok()) std::remove(tmp.c_str());
  return replaced;
}

Result<JournalContents> ReadJournal(const std::string& path) {
  JournalContents contents;
  GREEN_ASSIGN_OR_RETURN(const std::string text,
                         ReadWholeFile(path, /*missing_ok=*/true));

  // Every complete append ends in '\n'; a file that does not was killed
  // mid-append. The partial tail must be DISCARDED, not parsed: a
  // truncated line can be field-complete yet wrong (a cut-off number
  // parses as a smaller number), so "it still parses" is not safe.
  std::vector<std::string> lines = Split(text, '\n');
  if (!text.empty() && text.back() != '\n' && !lines.empty()) {
    LogWarning(StrFormat(
        "journal %s: discarding partial trailing line (%zu byte(s), "
        "crash mid-append); the cell will re-run on resume",
        path.c_str(), lines.back().size()));
    lines.pop_back();
    contents.truncated_tail = true;
  }
  for (const std::string& line : lines) {
    if (Trim(line).empty()) continue;
    size_t lost = 0;
    if (ParseIncompleteMarker(line, &lost)) {
      contents.append_failures += lost;
      continue;
    }
    Result<RunRecord> record = RecordFromJson(line);
    if (!record.ok()) {
      LogWarning("journal " + path + ": skipping unparseable line (" +
                 record.status().ToString() + ")");
      continue;
    }
    contents.records.push_back(std::move(record).value());
  }
  return contents;
}

Result<size_t> CompactJournalJsonl(const std::string& path) {
  GREEN_ASSIGN_OR_RETURN(JournalContents contents, ReadJournal(path));
  size_t removed = 0;
  const std::vector<RunRecord> kept =
      DedupeByCellKey(std::move(contents.records), &removed);
  // Compaction must not launder a known-incomplete journal into a
  // clean-looking one: the marker survives, consolidated.
  GREEN_RETURN_IF_ERROR(
      ReplaceJournal(path, kept, contents.append_failures));
  return removed;
}

Result<std::vector<RunRecord>> MergeShardRecords(
    std::vector<std::vector<RunRecord>> shards) {
  std::vector<RunRecord> merged;
  for (std::vector<RunRecord>& shard : shards) {
    // Per-shard resume cycles append superseding lines; apply the same
    // last-wins rule resume does before cross-shard checks.
    std::vector<RunRecord> deduped =
        DedupeByCellKey(std::move(shard), nullptr);
    for (RunRecord& record : deduped) {
      if (record.cell_index < 0) {
        return Status::InvalidArgument(
            "record without a cell index (" + RunRecordCellKey(record) +
            "): not a sharded-sweep journal");
      }
      merged.push_back(std::move(record));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const RunRecord& a, const RunRecord& b) {
              return a.cell_index < b.cell_index;
            });
  for (size_t i = 0; i < merged.size(); ++i) {
    const int64_t index = merged[i].cell_index;
    if (index != static_cast<int64_t>(i)) {
      return Status::InvalidArgument(StrFormat(
          index > static_cast<int64_t>(i)
              ? "shard journals are incomplete: cell %zu missing "
                "(did every shard finish, and is every shard present?)"
              : "duplicate cell %zu across shard journals "
                "(same shard passed twice, or shards ran with "
                "mismatched --shard specs)",
          i));
    }
    // Strip the shard-only index: the merged stream must be
    // byte-identical to an unsharded sweep's records.
    merged[i].cell_index = -1;
  }
  return merged;
}

Result<size_t> MergeShardJournals(const std::vector<std::string>& shard_paths,
                                  const std::string& out_path) {
  if (shard_paths.empty()) {
    return Status::InvalidArgument("no shard journals to merge");
  }
  std::vector<std::vector<RunRecord>> shards;
  for (const std::string& path : shard_paths) {
    GREEN_ASSIGN_OR_RETURN(JournalContents contents, ReadJournal(path));
    if (contents.append_failures > 0) {
      return Status::FailedPrecondition(StrFormat(
          "journal %s is marked incomplete (%zu lost append(s)); re-run "
          "that shard with --resume before merging",
          path.c_str(), contents.append_failures));
    }
    if (contents.records.empty()) {
      return Status::InvalidArgument("journal " + path +
                                     " is empty or missing");
    }
    shards.push_back(std::move(contents.records));
  }
  GREEN_ASSIGN_OR_RETURN(std::vector<RunRecord> merged,
                         MergeShardRecords(std::move(shards)));
  GREEN_RETURN_IF_ERROR(WriteRecordsJsonl(merged, out_path));
  return merged.size();
}

}  // namespace green
