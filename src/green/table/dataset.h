#ifndef GREEN_TABLE_DATASET_H_
#define GREEN_TABLE_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "green/common/status.h"
#include "green/table/task_type.h"

namespace green {

/// The two attribute kinds the paper's scope covers ("tabular data with
/// numeric and categorical attributes").
enum class FeatureType { kNumeric = 0, kCategorical = 1 };

/// The category a categorical cell names among `limit` codes: its value
/// truncated toward zero when it lies in [0, limit), else -1. Missing,
/// non-finite, negative and too-large values all read as -1, an unseen
/// category, so no cell value reaches an out-of-range integer cast.
inline int CategoryCode(double v, int limit) {
  return v >= 0.0 && v < static_cast<double>(limit) ? static_cast<int>(v)
                                                    : -1;
}

/// Per-column metadata of a Dataset: one type per column and optional
/// names. Copies, views and fitted encoders share one Schema through a
/// shared pointer and never write to it while it is shared; Dataset's
/// metadata mutators copy it on write.
class Schema {
 public:
  explicit Schema(size_t num_features)
      : types_(num_features, FeatureType::kNumeric) {}

  size_t size() const { return types_.size(); }
  FeatureType type(size_t j) const { return types_[j]; }
  /// The name set for column `j`, or the default `f<j>`, which is computed
  /// here and never stored.
  std::string name(size_t j) const;

  void set_type(size_t j, FeatureType type) { types_[j] = type; }
  /// An empty `name`, or the default `f<j>` itself, leaves column `j` at
  /// its default name.
  void set_name(size_t j, std::string name);

  /// True when both schemas have the same width and name every column
  /// alike; types are not compared.
  bool SameNames(const Schema& other) const;
  /// True when both schemas type every column alike; names are not
  /// compared.
  bool SameTypes(const Schema& other) const { return types_ == other.types_; }

  /// These columns followed by `extra` unnamed numeric ones.
  std::shared_ptr<Schema> Widened(size_t extra) const;

 private:
  std::vector<FeatureType> types_;
  /// Empty until a name other than the default is set, then one entry per
  /// column; "" = the default.
  std::vector<std::string> names_;
};

/// A labeled classification dataset: dense row-major feature matrix with
/// per-column types plus integer class labels in [0, num_classes).
///
/// Datasets carry two sizes: the *instantiated* size (rows actually held in
/// memory, possibly scaled down for simulation speed) and the *nominal*
/// size of the task they represent (e.g. covertype's 581,012 rows). The
/// energy cost model can extrapolate to nominal scale while learning runs
/// on the instantiated sample; see DESIGN.md §3.
///
/// Storage model: the feature matrix and the Schema (column types and
/// names) are two separate shared immutable blocks. Copying a Dataset is
/// O(rows) (labels only), and `Subset` returns an O(rows) *view* — a
/// row-index indirection over the same matrix and schema — instead of a
/// dense copy. Matrix mutators (`Set`, `MutableData`, `AppendRow`,
/// `Reserve`) copy-on-write the matrix alone: they first collapse the view
/// / unshare the matrix. Metadata mutators (`SetFeatureType`,
/// `SetFeatureName`) copy-on-write the schema alone and never touch the
/// matrix, so renaming a column of a view keeps it a view. No mutation is
/// ever visible through another Dataset. Default column names `f<j>` are
/// not stored: `feature_name` computes them on read. `Materialize()`
/// collapses a view into owned dense storage explicitly for code that
/// wants contiguity.
class Dataset {
 public:
  Dataset() = default;
  /// Classification dataset; the task is kBinary for num_classes <= 2 and
  /// kMulticlass otherwise.
  Dataset(std::string name, size_t num_features, int num_classes);

  /// Regression dataset: continuous targets, num_classes() == 1 (labels
  /// are all zero so every labels_-based invariant — row counts, class
  /// counts, stratified grouping — degrades gracefully to "one class").
  static Dataset Regression(std::string name, size_t num_features);

  /// Empty dataset shaped like `proto` (same task and class count) with a
  /// fresh feature width, for code that builds a dataset row by row (the
  /// stacking layer's training table) so the task survives.
  static Dataset Like(const Dataset& proto, std::string name,
                      size_t num_features);
  /// `proto`'s name, rows, labels (or targets) and nominal size over a
  /// fresh zero matrix with the columns `schema` describes, shared rather
  /// than copied (null = `proto`'s own columns). Callers fill it through
  /// MutableData(); transforms build their outputs this way.
  static Dataset WithColumns(const Dataset& proto,
                             std::shared_ptr<Schema> schema);

  // --- construction ---
  /// Appends one labeled row. `features.size()` must equal num_features().
  /// FailedPrecondition on regression datasets — use AppendTargetRow.
  Status AppendRow(const std::vector<double>& features, int label);

  /// Appends one row with a continuous target. FailedPrecondition on
  /// classification datasets.
  Status AppendTargetRow(const std::vector<double>& features, double target);

  /// Appends one row copying the label (or target) of `src`'s row
  /// `src_row`; `src` must have the same task and class count.
  Status AppendRowLike(const Dataset& src, size_t src_row,
                       const std::vector<double>& features);

  /// Pre-allocates capacity for `rows` total rows (copy-on-write first, so
  /// a view materializes once instead of growing geometrically from zero).
  void Reserve(size_t rows);

  void SetFeatureType(size_t j, FeatureType type);
  void SetFeatureName(size_t j, std::string name);
  void SetNominalSize(int64_t rows, int64_t features);

  // --- shape ---
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  size_t num_rows() const { return labels_.size(); }
  size_t num_features() const { return num_features_; }
  int num_classes() const { return num_classes_; }
  TaskType task() const { return task_; }
  int64_t nominal_rows() const { return nominal_rows_; }
  int64_t nominal_features() const { return nominal_features_; }

  // --- access ---
  double At(size_t row, size_t col) const {
    return storage_->x[PhysRow(row) * num_features_ + col];
  }
  void Set(size_t row, size_t col, double v) {
    EnsureOwned();
    storage_->x[row * num_features_ + col] = v;
  }
  /// Direct mutable access to the dense row-major matrix. Materializes
  /// (CoW) once, so element-wise transform loops pay one ownership check
  /// instead of one per Set(). The pointer is invalidated by the next
  /// mutation or copy of this Dataset.
  double* MutableData() {
    EnsureOwned();
    return storage_->x.data();
  }
  int Label(size_t row) const { return labels_[row]; }
  const std::vector<int>& labels() const { return labels_; }
  /// Continuous target of a regression row; empty for classification.
  double Target(size_t row) const { return targets_[row]; }
  const std::vector<double>& targets() const { return targets_; }
  /// Mean of the regression targets (0 when empty) — the regression
  /// analogue of the class prior.
  double TargetMean() const;
  const double* RowPtr(size_t row) const {
    return storage_->x.data() + PhysRow(row) * num_features_;
  }
  std::vector<double> Row(size_t row) const;
  FeatureType feature_type(size_t j) const { return schema_->type(j); }
  /// The column's name; `f<j>` when none was set.
  std::string feature_name(size_t j) const { return schema_->name(j); }
  /// The shared column metadata. Null for an empty default-constructed
  /// dataset.
  std::shared_ptr<const Schema> schema() const { return schema_; }

  /// Number of categorical features.
  size_t NumCategorical() const;

  /// Count of rows per class.
  std::vector<int> ClassCounts() const;

  /// New dataset containing the given rows (in order). O(rows): returns a
  /// view sharing this dataset's feature storage.
  Dataset Subset(const std::vector<size_t>& rows) const;

  /// Logical in-memory footprint of the feature matrix in bytes. Views
  /// report the same value as an equivalent dense copy, so modeled work
  /// is independent of the storage representation.
  double FeatureBytes() const {
    return static_cast<double>(num_rows()) *
           static_cast<double>(num_features_) * sizeof(double);
  }

  // --- storage identity (views / caching) ---
  /// True when rows are accessed through an index indirection.
  bool IsView() const { return row_index_ != nullptr; }

  /// Collapses a view (or shared storage) into owned dense storage.
  void Materialize() { EnsureOwned(); }

  /// Identity of the shared feature matrix; two datasets with equal
  /// StorageId see the same underlying matrix (their schemas may differ).
  /// Null for an empty default-constructed dataset. Valid only while
  /// either dataset is alive.
  const void* StorageId() const { return storage_.get(); }

  /// The row-index indirection, or nullptr when rows are contiguous.
  const std::vector<size_t>* RowIndex() const { return row_index_.get(); }

  /// Order-sensitive hash of (rows, features, row indices) — a cheap view
  /// fingerprint for cache keys. Callers needing exactness must still
  /// compare RowIndex() contents (see TransformCache).
  uint64_t ViewFingerprint() const;

 private:
  /// Immutable once shared; mutation goes through EnsureOwned().
  struct Storage {
    std::vector<double> x;  // Row-major, physical_rows * num_features.
  };

  size_t PhysRow(size_t row) const {
    return row_index_ == nullptr ? row : (*row_index_)[row];
  }

  /// Copy-on-write: after this call, storage is non-null, uniquely owned,
  /// dense (no row index), and safe to mutate. The schema stays shared.
  void EnsureOwned();

  /// Copy-on-write of the schema alone: the returned schema is owned by
  /// this dataset alone and safe to mutate; the matrix is left as it is.
  Schema& MutableSchema();

  std::string name_;
  size_t num_features_ = 0;
  int num_classes_ = 0;
  TaskType task_ = TaskType::kBinary;
  std::shared_ptr<Storage> storage_;
  /// Immutable once shared; mutation goes through MutableSchema().
  std::shared_ptr<Schema> schema_;
  /// Maps logical row -> physical row in storage. Null = identity.
  std::shared_ptr<const std::vector<size_t>> row_index_;
  std::vector<int> labels_;  // Per-view: labels_[i] labels logical row i.
  /// Parallel to labels_ for regression datasets; empty otherwise.
  std::vector<double> targets_;
  int64_t nominal_rows_ = 0;
  int64_t nominal_features_ = 0;
};

}  // namespace green

#endif  // GREEN_TABLE_DATASET_H_
