#include "green/table/csv.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "green/common/stringutil.h"

namespace green {

std::string ToCsvString(const Dataset& data) {
  const bool regression = data.task() == TaskType::kRegression;
  std::string out;
  for (size_t j = 0; j < data.num_features(); ++j) {
    out += data.feature_name(j);
    if (data.feature_type(j) == FeatureType::kCategorical) out += "#cat";
    out += ",";
  }
  out += regression ? "target\n" : "label\n";
  for (size_t r = 0; r < data.num_rows(); ++r) {
    for (size_t j = 0; j < data.num_features(); ++j) {
      const double v = data.At(r, j);
      if (!std::isnan(v)) out += StrFormat("%.10g", v);
      out += ",";
    }
    if (regression) {
      out += StrFormat("%.17g\n", data.Target(r));
    } else {
      out += StrFormat("%d\n", data.Label(r));
    }
  }
  return out;
}

Result<Dataset> FromCsvString(const std::string& text,
                              const std::string& name) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]).empty()) {
    return Status::InvalidArgument("empty CSV");
  }
  std::vector<std::string> header = Split(std::string(Trim(lines[0])), ',');
  const std::string last_col =
      header.empty() ? "" : std::string(Trim(header.back()));
  // "label" closes a classification CSV; "target" a regression one.
  const bool regression = last_col == "target";
  if (header.empty() || (last_col != "label" && !regression)) {
    return Status::InvalidArgument(
        "last CSV column must be 'label' or 'target'");
  }
  const size_t num_features = header.size() - 1;

  // First pass: parse rows, track max label.
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  std::vector<double> targets;
  int max_label = -1;
  for (size_t li = 1; li < lines.size(); ++li) {
    const std::string_view line = Trim(lines[li]);
    if (line.empty()) continue;
    std::vector<std::string> fields = Split(std::string(line), ',');
    if (fields.size() != header.size()) {
      return Status::InvalidArgument(
          StrFormat("line %zu has %zu fields, expected %zu", li,
                    fields.size(), header.size()));
    }
    std::vector<double> row(num_features);
    for (size_t j = 0; j < num_features; ++j) {
      const std::string f(Trim(fields[j]));
      if (f.empty()) {
        row[j] = NAN;  // Missing value.
        continue;
      }
      // Strict parse: the whole field must be consumed, so "12abc" or
      // "hello" in a numeric column is an error instead of a silent 0.
      char* end = nullptr;
      row[j] = std::strtod(f.c_str(), &end);
      if (end == f.c_str() || *end != '\0') {
        return Status::InvalidArgument(
            StrFormat("non-numeric value '%s' in column %zu on line %zu",
                      f.c_str(), j, li));
      }
    }
    const std::string label_field(Trim(fields.back()));
    if (regression) {
      // Same hostile-input discipline as the feature columns: the whole
      // field must parse, so "12abc" or "" errors instead of becoming 0.
      char* target_end = nullptr;
      const double target = std::strtod(label_field.c_str(), &target_end);
      if (label_field.empty() || target_end == label_field.c_str() ||
          *target_end != '\0') {
        return Status::InvalidArgument(
            StrFormat("non-numeric target '%s' on line %zu",
                      label_field.c_str(), li));
      }
      if (std::isnan(target) || std::isinf(target)) {
        return Status::InvalidArgument(
            StrFormat("non-finite target on line %zu", li));
      }
      rows.push_back(std::move(row));
      targets.push_back(target);
      continue;
    }
    char* label_end = nullptr;
    const long parsed_label =
        std::strtol(label_field.c_str(), &label_end, 10);
    if (label_field.empty() || label_end == label_field.c_str() ||
        *label_end != '\0') {
      return Status::InvalidArgument(
          StrFormat("non-integer label '%s' on line %zu",
                    label_field.c_str(), li));
    }
    if (parsed_label < 0 || parsed_label > 1000000L) {
      return Status::InvalidArgument(
          StrFormat("label out of range on line %zu", li));
    }
    const int label = static_cast<int>(parsed_label);
    max_label = std::max(max_label, label);
    rows.push_back(std::move(row));
    labels.push_back(label);
  }
  if (rows.empty()) return Status::InvalidArgument("CSV has no data rows");

  Dataset data = regression ? Dataset::Regression(name, num_features)
                            : Dataset(name, num_features, max_label + 1);
  for (size_t j = 0; j < num_features; ++j) {
    std::string col_name = std::string(Trim(header[j]));
    if (EndsWith(col_name, "#cat")) {
      data.SetFeatureType(j, FeatureType::kCategorical);
      col_name.resize(col_name.size() - 4);
    }
    data.SetFeatureName(j, col_name);
  }
  data.Reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (regression) {
      GREEN_RETURN_IF_ERROR(data.AppendTargetRow(rows[r], targets[r]));
    } else {
      GREEN_RETURN_IF_ERROR(data.AppendRow(rows[r], labels[r]));
    }
  }
  return data;
}

Status WriteCsv(const Dataset& data, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open for write: " + path);
  const std::string text = ToCsvString(data);
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  // fclose flushes the buffer, so a full device often fails only here.
  const bool closed = std::fclose(f) == 0;
  if (written != text.size()) {
    return Status::IoError("short write to " + path);
  }
  if (!closed) return Status::IoError("write failed at close: " + path);
  return Status::Ok();
}

Result<Dataset> ReadCsv(const std::string& path, const std::string& name) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IoError("cannot open for read: " + path);
  std::string text;
  char buf[65536];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_failed = std::ferror(f) != 0;
  std::fclose(f);
  if (read_failed) return Status::IoError("read failed: " + path);
  return FromCsvString(text, name);
}

}  // namespace green
