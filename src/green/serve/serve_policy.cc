#include "green/serve/serve_policy.h"

namespace green {

void ServePolicy::Load(const KnobValues& knobs) {
  knobs.Assign(knob::kServeQueue, &queue_capacity);
  knobs.Assign(knob::kServeBatch, &max_batch);
  if (std::optional<double> ms = knobs.Get<double>(knob::kServeBatchDelayMs)) {
    batch_delay_seconds = *ms / 1e3;
  }
  if (std::optional<double> ms = knobs.Get<double>(knob::kServeDeadlineMs)) {
    deadline_seconds = *ms / 1e3;
  }
  knobs.Assign(knob::kServeEnergySloJ, &energy_slo_joules);
  knobs.Assign(knob::kServePolicy, &on_deadline);
  knobs.Assign(knob::kServeShed, &shed);
}

}  // namespace green
