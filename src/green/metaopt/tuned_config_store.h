#ifndef GREEN_METAOPT_TUNED_CONFIG_STORE_H_
#define GREEN_METAOPT_TUNED_CONFIG_STORE_H_

#include <map>

#include "green/automl/caml_system.h"

namespace green {

/// Stores tuned CAML parameters per search-time budget — the paper's
/// point that tuned AutoML parameters are *search-time dependent*
/// (Table 5: a small space wins at 30 s, a wider one at 5 min).
class TunedConfigStore {
 public:
  void Put(double budget_seconds, const CamlParams& params);

  /// Parameters tuned for the closest stored budget; NotFound if empty.
  Result<CamlParams> Get(double budget_seconds) const;

  size_t size() const { return entries_.size(); }

  /// Reference tuned configurations mirroring the paper's Table 5
  /// (shipped so benchmarks can exercise CAML(tuned) without re-running
  /// the multi-hour tuning campaign; `AutoMlTuner` regenerates them).
  static TunedConfigStore PaperDefaults();

 private:
  std::map<double, CamlParams> entries_;
};

}  // namespace green

#endif  // GREEN_METAOPT_TUNED_CONFIG_STORE_H_
