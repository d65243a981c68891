#include "green/ml/estimator.h"

#include <algorithm>

#include "green/common/logging.h"
#include "green/common/mathutil.h"

namespace green {

Result<std::vector<int>> Estimator::Predict(const Dataset& data,
                                            ExecutionContext* ctx) const {
  if (task() == TaskType::kRegression) {
    return Status::FailedPrecondition(
        Name() + ": regression estimator has no class predictions");
  }
  GREEN_ASSIGN_OR_RETURN(ProbaMatrix proba, PredictProba(data, ctx));
  std::vector<int> out;
  out.reserve(proba.size());
  for (const auto& row : proba) {
    out.push_back(static_cast<int>(ArgMax(row)));
  }
  return out;
}

Status Transformer::Fit(const Dataset& train, ExecutionContext* ctx) {
  GREEN_ASSIGN_OR_RETURN(fit_charge_, Learn(train));
  ChargeFit(ctx);
  fitted_ = true;
  input_width_ = train.num_features();
  return Status::Ok();
}

void Transformer::ChargeFit(ExecutionContext* ctx) const {
  ChargeScope scope(ctx, Name());
  ctx->ChargeCpu(fit_charge_.flops, fit_charge_.bytes,
                 fit_charge_.parallel_fraction);
}

Result<Dataset> Transformer::Transform(const Dataset& data,
                                       ExecutionContext* ctx) const {
  const Transformer* chain[] = {this};
  return RunTransformChain(chain, data, ctx);
}

Result<Dataset> RunTransformChain(std::span<const Transformer* const> chain,
                                  const Dataset& data,
                                  ExecutionContext* ctx) {
  if (chain.empty()) return data;
  // Validate the whole chain and resolve its output columns before any
  // row runs or any charge lands.
  size_t width = data.num_features();
  size_t widest = 0;
  const Schema* columns = data.schema().get();
  std::shared_ptr<Schema> out_schema;  // Null: `data`'s own columns.
  for (const Transformer* t : chain) {
    if (!t->fitted()) {
      return Status::FailedPrecondition(t->Name() + " not fitted");
    }
    if (width != t->input_width()) {
      return Status::InvalidArgument(t->Name() + ": feature count mismatch");
    }
    width = t->OutputWidth(width);
    widest = std::max(widest, width);
    if (std::shared_ptr<Schema> schema = t->OutputSchema(*columns)) {
      out_schema = std::move(schema);
      columns = out_schema.get();
    }
  }

  Dataset out = Dataset::WithColumns(data, std::move(out_schema));
  GREEN_CHECK(out.num_features() == width);
  const size_t rows = data.num_rows();
  double* x = out.MutableData();
  std::vector<double> buffers(2 * widest);  // Two rows, used in turn.
  const size_t last = chain.size() - 1;
  for (size_t r = 0; r < rows; ++r) {
    const double* in = data.RowPtr(r);
    for (size_t i = 0; i < last; ++i) {
      double* row = buffers.data() + (i % 2) * widest;
      chain[i]->TransformRow(in, row);
      in = row;
    }
    chain[last]->TransformRow(in, x + r * width);
  }

  ChargeTransformChain(chain, rows, ctx);
  return out;
}

void ChargeTransformChain(std::span<const Transformer* const> chain,
                          size_t rows, ExecutionContext* ctx) {
  for (const Transformer* t : chain) {
    ChargeScope scope(ctx, t->Name());
    const TransformCharge charge = t->ChargeFor(rows);
    ctx->ChargeCpu(charge.flops, charge.bytes, charge.parallel_fraction);
  }
}

}  // namespace green
