#include "green/automl/fitted_artifact.h"

#include <algorithm>

#include "green/common/logging.h"
#include "green/common/mathutil.h"
#include "green/common/stringutil.h"

namespace green {

namespace {

/// Weighted blend of member probabilities, weights normalized to sum 1:
/// streams every member into one flat rows x k accumulator instead of
/// per-row vectors. Per-(row, class) adds keep member order, and
/// non-positive normalized weights are skipped.
ProbaMatrix BlendFlat(const std::vector<ProbaMatrix>& probas,
                      const std::vector<FittedArtifact::Member>& members,
                      size_t rows, size_t k) {
  double weight_sum = 0.0;
  for (const FittedArtifact::Member& m : members) weight_sum += m.weight;
  if (weight_sum <= 0.0) weight_sum = 1.0;
  std::vector<double> acc(rows * k, 0.0);
  for (size_t j = 0; j < probas.size(); ++j) {
    const double w = members[j].weight / weight_sum;
    if (w <= 0.0) continue;
    const ProbaMatrix& p = probas[j];
    for (size_t i = 0; i < rows; ++i) {
      double* row = acc.data() + i * k;
      const std::vector<double>& src = p[i];
      for (size_t c = 0; c < k; ++c) row[c] += w * src[c];
    }
  }
  ProbaMatrix out(rows);
  for (size_t i = 0; i < rows; ++i) {
    out[i].assign(acc.begin() + static_cast<ptrdiff_t>(i * k),
                  acc.begin() + static_cast<ptrdiff_t>((i + 1) * k));
  }
  return out;
}

}  // namespace

FittedArtifact FittedArtifact::Single(
    std::shared_ptr<const Pipeline> pipeline) {
  FittedArtifact out;
  Member member;
  member.folds.push_back(std::move(pipeline));
  member.weight = 1.0;
  out.base_.push_back(std::move(member));
  return out;
}

FittedArtifact FittedArtifact::Weighted(std::vector<Member> members) {
  FittedArtifact out;
  out.base_ = std::move(members);
  return out;
}

FittedArtifact FittedArtifact::Stacked(
    std::vector<Member> base, std::vector<Member> meta,
    std::shared_ptr<const Schema> raw_columns) {
  GREEN_CHECK(raw_columns != nullptr);
  FittedArtifact out;
  out.base_ = std::move(base);
  out.meta_ = std::move(meta);
  const Estimator* model = out.base_.empty() || out.base_[0].folds.empty()
                               ? nullptr
                               : out.base_[0].folds[0]->model();
  const size_t k = model != nullptr && model->num_classes() > 0
                       ? static_cast<size_t>(model->num_classes())
                       : 0;
  out.augmented_columns_ = raw_columns->Widened(out.base_.size() * k);
  out.raw_columns_ = std::move(raw_columns);
  return out;
}

Result<FittedArtifact> FittedArtifact::DistillBestSingle() const {
  if (base_.empty()) {
    return Status::FailedPrecondition("artifact is empty");
  }
  const Member* best = &base_[0];
  for (const Member& m : base_) {
    if (m.weight > best->weight) best = &m;
  }
  GREEN_CHECK(!best->folds.empty());
  return Single(best->folds[0]);
}

size_t FittedArtifact::NumPipelines() const {
  size_t n = 0;
  for (const Member& m : base_) n += m.folds.size();
  for (const Member& m : meta_) n += m.folds.size();
  return n;
}

Result<ProbaMatrix> FittedArtifact::MemberProba(
    const Member& member, const Dataset& data,
    ExecutionContext* ctx) const {
  GREEN_CHECK(!member.folds.empty());
  ProbaMatrix sum;
  for (const auto& fold : member.folds) {
    GREEN_ASSIGN_OR_RETURN(ProbaMatrix proba,
                           fold->PredictProba(data, ctx));
    if (ctx->Interrupted()) {
      return Status::DeadlineExceeded("artifact: interrupted mid-predict");
    }
    if (sum.empty()) {
      sum = std::move(proba);
    } else {
      for (size_t i = 0; i < sum.size(); ++i) {
        for (size_t c = 0; c < sum[i].size(); ++c) {
          sum[i][c] += proba[i][c];
        }
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(member.folds.size());
  for (auto& row : sum) {
    for (double& p : row) p *= inv;
  }
  return sum;
}

Result<ProbaMatrix> FittedArtifact::PredictProba(
    const Dataset& data, ExecutionContext* ctx) const {
  if (base_.empty()) {
    return Status::FailedPrecondition("artifact is empty");
  }
  ChargeScope scope(ctx, meta_.empty() ? "blend" : "stack");

  // Base layer.
  std::vector<ProbaMatrix> base_probas;
  base_probas.reserve(base_.size());
  for (const Member& member : base_) {
    GREEN_ASSIGN_OR_RETURN(ProbaMatrix proba,
                           MemberProba(member, data, ctx));
    base_probas.push_back(std::move(proba));
  }

  if (meta_.empty()) {
    // Weighted blend of the base layer.
    const size_t k = base_probas[0][0].size();
    ProbaMatrix out = BlendFlat(base_probas, base_, data.num_rows(), k);
    ctx->ChargeCpu(static_cast<double>(data.num_rows()) *
                       static_cast<double>(base_.size()) *
                       static_cast<double>(base_probas[0][0].size()),
                   0.0);
    if (ctx->Interrupted()) {
      return Status::DeadlineExceeded("artifact: interrupted mid-predict");
    }
    return out;
  }

  // Stacked: augment features with base probabilities, then run the meta
  // layer and blend it.
  const size_t k = base_probas[0][0].size();
  const size_t aug_width =
      data.num_features() + base_.size() * k;
  // Pointer equality first (the training table or a view of it), then
  // contents (fresh data with the same column names and types).
  const Schema& raw = *data.schema();
  const bool fitted_columns =
      augmented_columns_->size() == aug_width &&
      (&raw == raw_columns_.get() ||
       (raw.SameNames(*raw_columns_) && raw.SameTypes(*raw_columns_)));
  Dataset augmented = Dataset::WithColumns(
      data, fitted_columns ? augmented_columns_
                           : raw.Widened(aug_width - data.num_features()));
  double* x = augmented.MutableData();
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const double* p = data.RowPtr(i);
    double* row = x + i * aug_width;
    std::copy(p, p + data.num_features(), row);
    size_t o = data.num_features();
    for (size_t j = 0; j < base_.size(); ++j) {
      for (size_t c = 0; c < k; ++c) row[o++] = base_probas[j][i][c];
    }
  }
  ctx->ChargeCpu(static_cast<double>(data.num_rows() * aug_width),
                 augmented.FeatureBytes());

  std::vector<ProbaMatrix> meta_probas;
  meta_probas.reserve(meta_.size());
  for (const Member& member : meta_) {
    GREEN_ASSIGN_OR_RETURN(ProbaMatrix proba,
                           MemberProba(member, augmented, ctx));
    meta_probas.push_back(std::move(proba));
  }
  ProbaMatrix out = BlendFlat(meta_probas, meta_, data.num_rows(), k);
  if (ctx->Interrupted()) {
    return Status::DeadlineExceeded("artifact: interrupted mid-predict");
  }
  return out;
}

TaskType FittedArtifact::task() const {
  if (!base_.empty() && !base_[0].folds.empty()) {
    const Estimator* model = base_[0].folds[0]->model();
    if (model != nullptr) return model->task();
  }
  return TaskType::kBinary;
}

Result<std::vector<int>> FittedArtifact::Predict(
    const Dataset& data, ExecutionContext* ctx) const {
  if (task() == TaskType::kRegression) {
    return Status::FailedPrecondition(
        "artifact: Predict (class labels) undefined for regression; use "
        "PredictProba and read column 0");
  }
  GREEN_ASSIGN_OR_RETURN(ProbaMatrix proba, PredictProba(data, ctx));
  std::vector<int> out;
  out.reserve(proba.size());
  for (const auto& row : proba) {
    out.push_back(static_cast<int>(ArgMax(row)));
  }
  return out;
}

double FittedArtifact::InferenceFlopsPerRow(size_t raw_num_features) const {
  double flops = 0.0;
  for (const Member& m : base_) {
    for (const auto& fold : m.folds) {
      flops += fold->InferenceFlopsPerRow(raw_num_features);
    }
  }
  if (!meta_.empty() && !base_.empty() && !base_[0].folds.empty()) {
    const Estimator* any_model = base_[0].folds[0]->model();
    const size_t k =
        any_model != nullptr && any_model->num_classes() > 0
            ? static_cast<size_t>(any_model->num_classes())
            : 2;
    const size_t aug_width = raw_num_features + base_.size() * k;
    for (const Member& m : meta_) {
      for (const auto& fold : m.folds) {
        flops += fold->InferenceFlopsPerRow(aug_width);
      }
    }
  }
  return flops;
}

std::string FittedArtifact::Describe() const {
  std::vector<std::string> parts;
  for (const Member& m : base_) {
    if (m.weight <= 0.0) continue;
    parts.push_back(StrFormat("%.2f*%s%s", m.weight,
                              m.folds[0]->Describe().c_str(),
                              m.folds.size() > 1
                                  ? StrFormat("(x%zu folds)",
                                              m.folds.size())
                                        .c_str()
                                  : ""));
  }
  std::string out = Join(parts, " + ");
  if (!meta_.empty()) {
    std::vector<std::string> meta_parts;
    for (const Member& m : meta_) {
      if (m.weight <= 0.0) continue;
      meta_parts.push_back(
          StrFormat("%.2f*%s", m.weight, m.folds[0]->Describe().c_str()));
    }
    out = "stack[base: " + out + " | meta: " + Join(meta_parts, " + ") +
          "]";
  }
  return out;
}

}  // namespace green
