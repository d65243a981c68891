#include "green/ml/preprocess/one_hot.h"

#include <algorithm>

#include "green/common/stringutil.h"

namespace green {

Result<TransformCharge> OneHotEncoder::Learn(const Dataset& train) {
  const size_t d = train.num_features();
  cardinality_.assign(d, 0);
  output_width_ = 0;
  const double cap = static_cast<double>(max_cardinality_);
  for (size_t j = 0; j < d; ++j) {
    if (train.feature_type(j) == FeatureType::kCategorical) {
      int card = 0;
      bool within_cap = true;
      for (size_t r = 0; r < train.num_rows(); ++r) {
        const double v = train.At(r, j);
        if (v >= cap) {
          within_cap = false;
          break;
        }
        card = std::max(card, CategoryCode(v, max_cardinality_) + 1);
      }
      if (within_cap && card >= 2) {
        cardinality_[j] = card;
        output_width_ += static_cast<size_t>(card);
        continue;
      }
    }
    output_width_ += 1;  // Pass-through.
  }
  input_schema_ = train.schema();
  output_schema_ = BuildSchema(*input_schema_);
  return TransformCharge{static_cast<double>(train.num_rows() * d),
                         train.FeatureBytes()};
}

std::shared_ptr<Schema> OneHotEncoder::BuildSchema(const Schema& input) const {
  auto schema = std::make_shared<Schema>(output_width_);
  size_t o = 0;
  for (size_t j = 0; j < cardinality_.size(); ++j) {
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

std::shared_ptr<Schema> OneHotEncoder::OutputSchema(
    const Schema& input) const {
  // Pointer equality first (the fit-time input or a view of it), then
  // contents (fresh data with the same column names).
  if (&input == input_schema_.get() || input.SameNames(*input_schema_)) {
    return output_schema_;
  }
  return BuildSchema(input);
}

void OneHotEncoder::TransformRow(const double* in, double* out) const {
  for (size_t j = 0; j < cardinality_.size(); ++j) {
    const int card = cardinality_[j];
    if (card == 0) {
      *out++ = in[j];
      continue;
    }
    std::fill(out, out + card, 0.0);
    const int code = CategoryCode(in[j], card);
    if (code >= 0) out[code] = 1.0;
    out += card;
  }
}

}  // namespace green
