#ifndef GREEN_TESTS_FLOPS_METER_H_
#define GREEN_TESTS_FLOPS_METER_H_

#include "green/energy/energy_meter.h"
#include "green/sim/execution_context.h"

namespace green {

/// Meters a context for its lifetime and reads the flops charged meanwhile
/// off the meter's scope rows, where every completed charge lands once.
/// Restores the context's previous meter on destruction.
class FlopsMeter {
 public:
  explicit FlopsMeter(ExecutionContext* ctx)
      : ctx_(ctx), meter_(ctx->model()), previous_(ctx->meter()) {
    meter_.Start(ctx->Now());
    ctx->SetMeter(&meter_);
  }
  ~FlopsMeter() { ctx_->SetMeter(previous_); }

  FlopsMeter(const FlopsMeter&) = delete;
  FlopsMeter& operator=(const FlopsMeter&) = delete;

  double flops() const {
    double flops = 0.0;
    for (const auto& [path, charge] : meter_.Peek(ctx_->Now()).scopes) {
      flops += charge.flops;
    }
    return flops;
  }

 private:
  ExecutionContext* ctx_;
  EnergyMeter meter_;
  EnergyMeter* previous_;
};

}  // namespace green

#endif  // GREEN_TESTS_FLOPS_METER_H_
