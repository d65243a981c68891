#include "green/table/dataset.h"

#include <algorithm>

#include "green/common/logging.h"
#include "green/common/rng.h"
#include "green/common/stringutil.h"

namespace green {

namespace {

// True when `name` is column j's default name f<j>.
bool IsDefaultName(const std::string& name, size_t j) {
  return name.size() > 1 && name[0] == 'f' &&
         name.compare(1, std::string::npos, std::to_string(j)) == 0;
}

}  // namespace

std::string Schema::name(size_t j) const {
  if (j < names_.size() && !names_[j].empty()) return names_[j];
  return StrFormat("f%zu", j);
}

void Schema::set_name(size_t j, std::string name) {
  // A default name is stored as unset, so equal names are equal strings.
  if (IsDefaultName(name, j)) name.clear();
  if (names_.empty()) {
    if (name.empty()) return;
    names_.resize(types_.size());
  }
  names_[j] = std::move(name);
}

bool Schema::SameNames(const Schema& other) const {
  if (size() != other.size()) return false;
  if (names_.empty() || other.names_.empty()) {
    const std::vector<std::string>& named =
        names_.empty() ? other.names_ : names_;
    return std::all_of(named.begin(), named.end(),
                       [](const std::string& n) { return n.empty(); });
  }
  return names_ == other.names_;
}

std::shared_ptr<Schema> Schema::Widened(size_t extra) const {
  auto out = std::make_shared<Schema>(*this);
  out->types_.resize(size() + extra, FeatureType::kNumeric);
  if (!out->names_.empty()) out->names_.resize(out->types_.size());
  return out;
}

Dataset::Dataset(std::string name, size_t num_features, int num_classes)
    : name_(std::move(name)),
      num_features_(num_features),
      num_classes_(num_classes),
      task_(TaskTypeForClasses(num_classes)),
      storage_(std::make_shared<Storage>()),
      schema_(std::make_shared<Schema>(num_features)) {}

Dataset Dataset::Regression(std::string name, size_t num_features) {
  Dataset out(std::move(name), num_features, /*num_classes=*/1);
  out.task_ = TaskType::kRegression;
  return out;
}

Dataset Dataset::Like(const Dataset& proto, std::string name,
                      size_t num_features) {
  Dataset out;
  out.name_ = std::move(name);
  out.num_features_ = num_features;
  out.num_classes_ = proto.num_classes();
  out.task_ = proto.task();
  out.storage_ = std::make_shared<Storage>();
  out.schema_ = std::make_shared<Schema>(num_features);
  return out;
}

Dataset Dataset::WithColumns(const Dataset& proto,
                             std::shared_ptr<Schema> schema) {
  Dataset out;
  out.name_ = proto.name_;
  out.num_features_ = schema != nullptr ? schema->size() : proto.num_features_;
  out.num_classes_ = proto.num_classes_;
  out.task_ = proto.task_;
  out.storage_ = std::make_shared<Storage>();
  out.storage_->x.resize(proto.num_rows() * out.num_features_);
  out.schema_ = schema != nullptr ? std::move(schema) : proto.schema_;
  out.labels_ = proto.labels_;
  out.targets_ = proto.targets_;
  out.nominal_rows_ = proto.nominal_rows_;
  out.nominal_features_ = proto.nominal_features_;
  return out;
}

void Dataset::EnsureOwned() {
  if (storage_ != nullptr && row_index_ == nullptr &&
      storage_.use_count() == 1) {
    return;
  }
  auto fresh = std::make_shared<Storage>();
  if (storage_ != nullptr) {
    fresh->x.reserve(num_rows() * num_features_);
    for (size_t r = 0; r < num_rows(); ++r) {
      const double* p = RowPtr(r);
      fresh->x.insert(fresh->x.end(), p, p + num_features_);
    }
  }
  storage_ = std::move(fresh);
  row_index_ = nullptr;
}

Schema& Dataset::MutableSchema() {
  if (schema_.use_count() != 1) schema_ = std::make_shared<Schema>(*schema_);
  return *schema_;
}

Status Dataset::AppendRow(const std::vector<double>& features, int label) {
  if (task_ == TaskType::kRegression) {
    return Status::FailedPrecondition(
        "AppendRow on a regression dataset; use AppendTargetRow");
  }
  if (features.size() != num_features_) {
    return Status::InvalidArgument(
        StrFormat("row has %zu features, expected %zu", features.size(),
                  num_features_));
  }
  if (label < 0 || label >= num_classes_) {
    return Status::InvalidArgument(
        StrFormat("label %d out of range [0, %d)", label, num_classes_));
  }
  EnsureOwned();
  storage_->x.insert(storage_->x.end(), features.begin(), features.end());
  labels_.push_back(label);
  return Status::Ok();
}

Status Dataset::AppendTargetRow(const std::vector<double>& features,
                                double target) {
  if (task_ != TaskType::kRegression) {
    return Status::FailedPrecondition(
        "AppendTargetRow on a classification dataset; use AppendRow");
  }
  if (features.size() != num_features_) {
    return Status::InvalidArgument(
        StrFormat("row has %zu features, expected %zu", features.size(),
                  num_features_));
  }
  EnsureOwned();
  storage_->x.insert(storage_->x.end(), features.begin(), features.end());
  labels_.push_back(0);  // All-zero labels keep class invariants alive.
  targets_.push_back(target);
  return Status::Ok();
}

Status Dataset::AppendRowLike(const Dataset& src, size_t src_row,
                              const std::vector<double>& features) {
  if (src.task() != task_) {
    return Status::InvalidArgument("AppendRowLike: task mismatch");
  }
  if (task_ == TaskType::kRegression) {
    return AppendTargetRow(features, src.Target(src_row));
  }
  return AppendRow(features, src.Label(src_row));
}

double Dataset::TargetMean() const {
  if (targets_.empty()) return 0.0;
  double sum = 0.0;
  for (double y : targets_) sum += y;
  return sum / static_cast<double>(targets_.size());
}

void Dataset::Reserve(size_t rows) {
  EnsureOwned();
  storage_->x.reserve(rows * num_features_);
  labels_.reserve(rows);
  if (task_ == TaskType::kRegression) targets_.reserve(rows);
}

void Dataset::SetFeatureType(size_t j, FeatureType type) {
  GREEN_CHECK(j < num_features_);
  MutableSchema().set_type(j, type);
}

void Dataset::SetFeatureName(size_t j, std::string name) {
  GREEN_CHECK(j < num_features_);
  MutableSchema().set_name(j, std::move(name));
}

void Dataset::SetNominalSize(int64_t rows, int64_t features) {
  nominal_rows_ = rows;
  nominal_features_ = features;
}

std::vector<double> Dataset::Row(size_t row) const {
  const double* p = RowPtr(row);
  return std::vector<double>(p, p + num_features_);
}

size_t Dataset::NumCategorical() const {
  size_t n = 0;
  for (size_t j = 0; j < num_features_; ++j) {
    if (feature_type(j) == FeatureType::kCategorical) ++n;
  }
  return n;
}

std::vector<int> Dataset::ClassCounts() const {
  std::vector<int> counts(static_cast<size_t>(num_classes_), 0);
  for (int y : labels_) ++counts[static_cast<size_t>(y)];
  return counts;
}

Dataset Dataset::Subset(const std::vector<size_t>& rows) const {
  Dataset out;
  out.name_ = name_;
  out.num_features_ = num_features_;
  out.num_classes_ = num_classes_;
  out.task_ = task_;
  out.nominal_rows_ = nominal_rows_;
  out.nominal_features_ = nominal_features_;
  out.storage_ = storage_;
  out.schema_ = schema_;
  auto index = std::make_shared<std::vector<size_t>>();
  index->reserve(rows.size());
  out.labels_.reserve(rows.size());
  if (!targets_.empty()) out.targets_.reserve(rows.size());
  for (size_t r : rows) {
    GREEN_CHECK(r < num_rows());
    index->push_back(PhysRow(r));  // Compose views: map through our index.
    out.labels_.push_back(labels_[r]);
    if (!targets_.empty()) out.targets_.push_back(targets_[r]);
  }
  out.row_index_ = std::move(index);
  return out;
}

uint64_t Dataset::ViewFingerprint() const {
  uint64_t h = HashCombine(0x9e3779b97f4a7c15ull, num_rows());
  h = HashCombine(h, num_features_);
  if (row_index_ != nullptr) {
    for (size_t r : *row_index_) h = HashCombine(h, r);
  }
  return h;
}

}  // namespace green
