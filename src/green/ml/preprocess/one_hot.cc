#include "green/ml/preprocess/one_hot.h"

#include <cmath>

#include "green/common/stringutil.h"

namespace green {

Status OneHotEncoder::Fit(const Dataset& train, ExecutionContext* ctx) {
  ChargeScope scope(ctx, Name());
  const size_t d = train.num_features();
  input_width_ = d;
  cardinality_.assign(d, 0);
  output_width_ = 0;
  for (size_t j = 0; j < d; ++j) {
    if (train.feature_type(j) == FeatureType::kCategorical) {
      int card = 0;
      for (size_t r = 0; r < train.num_rows(); ++r) {
        const double v = train.At(r, j);
        if (!std::isnan(v)) {
          card = std::max(card, static_cast<int>(v) + 1);
        }
      }
      if (card >= 2 && card <= max_cardinality_) {
        cardinality_[j] = card;
        output_width_ += static_cast<size_t>(card);
        continue;
      }
    }
    output_width_ += 1;  // Pass-through.
  }
  input_schema_ = train.schema();
  output_schema_ = OutputSchema(*input_schema_);
  ctx->ChargeCpu(static_cast<double>(train.num_rows() * d),
                 train.FeatureBytes());
  fitted_ = true;
  return Status::Ok();
}

std::shared_ptr<Schema> OneHotEncoder::OutputSchema(
    const Schema& input) const {
  auto schema = std::make_shared<Schema>(output_width_);
  size_t o = 0;
  for (size_t j = 0; j < input_width_; ++j) {
    if (cardinality_[j] == 0) {
      schema->set_name(o++, input.name(j));
      continue;
    }
    for (int c = 0; c < cardinality_[j]; ++c) {
      schema->set_name(o++, StrFormat("%s=%d", input.name(j).c_str(), c));
    }
  }
  return schema;
}

Result<Dataset> OneHotEncoder::Transform(const Dataset& data,
                                         ExecutionContext* ctx) const {
  if (!fitted_) return Status::FailedPrecondition("one_hot not fitted");
  if (data.num_features() != input_width_) {
    return Status::InvalidArgument("one_hot: feature count mismatch");
  }
  ChargeScope scope(ctx, Name());

  // Identity shortcut: nothing to encode and every input column is
  // already numeric, so the output would be a column-for-column copy.
  // Return the input as a view instead of rebuilding it row by row.
  if (output_width_ == input_width_) {
    bool identity = true;
    for (size_t j = 0; j < input_width_; ++j) {
      if (cardinality_[j] != 0 ||
          data.feature_type(j) != FeatureType::kNumeric) {
        identity = false;
        break;
      }
    }
    if (identity) {
      Dataset out = data;
      ctx->ChargeCpu(static_cast<double>(data.num_rows() * output_width_),
                     out.FeatureBytes());
      return out;
    }
  }

  // Pointer equality first (the fit-time input or a view of it), then
  // contents (fresh data with the same column names).
  const std::shared_ptr<const Schema> input = data.schema();
  const bool fitted_names =
      input == input_schema_ || input->SameNames(*input_schema_);
  Dataset out = Dataset::Like(
      data, data.name(), fitted_names ? output_schema_ : OutputSchema(*input));
  out.SetNominalSize(data.nominal_rows(), data.nominal_features());
  out.Reserve(data.num_rows());

  std::vector<double> row(output_width_);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    size_t o = 0;
    for (size_t j = 0; j < input_width_; ++j) {
      const double v = data.At(r, j);
      if (cardinality_[j] == 0) {
        row[o++] = v;
      } else {
        for (int c = 0; c < cardinality_[j]; ++c) row[o + c] = 0.0;
        if (!std::isnan(v)) {
          const int code = static_cast<int>(v);
          if (code >= 0 && code < cardinality_[j]) {
            row[o + static_cast<size_t>(code)] = 1.0;
          }
        }
        o += static_cast<size_t>(cardinality_[j]);
      }
    }
    GREEN_RETURN_IF_ERROR(out.AppendRowLike(data, r, row));
  }
  ctx->ChargeCpu(static_cast<double>(data.num_rows() * output_width_),
                 out.FeatureBytes());
  return out;
}

}  // namespace green
