#ifndef GREEN_SEARCH_PARAM_SPACE_H_
#define GREEN_SEARCH_PARAM_SPACE_H_

#include <map>
#include <string>
#include <vector>

#include "green/common/rng.h"
#include "green/common/status.h"

namespace green {

/// One tunable dimension.
struct ParamSpec {
  enum class Kind { kDouble, kInt, kCategorical };

  std::string name;
  Kind kind = Kind::kDouble;
  double lo = 0.0;    ///< For double/int kinds.
  double hi = 1.0;
  bool log_scale = false;
  std::vector<std::string> categories;  ///< For kCategorical.

  static ParamSpec Double(std::string name, double lo, double hi,
                          bool log_scale = false);
  static ParamSpec Int(std::string name, int lo, int hi,
                       bool log_scale = false);
  static ParamSpec Categorical(std::string name,
                               std::vector<std::string> categories);
};

/// A point in the space, both as raw unit-cube coordinates (what
/// surrogates and genetic operators manipulate) and as decoded values.
struct ParamPoint {
  std::vector<double> unit;  ///< One coordinate in [0,1] per dimension.

  /// Decoded views, filled by ParamSpace::Decode.
  std::map<std::string, double> values;       ///< Double + int params.
  std::map<std::string, std::string> choices; ///< Categorical params.
};

/// An ordered collection of ParamSpecs with unit-cube encode/decode.
/// All search strategies in this library (random, BO, NSGA-II, the
/// AutoML-parameter tuner) operate on the same representation.
class ParamSpace {
 public:
  void Add(ParamSpec spec);

  size_t dimension() const { return specs_.size(); }
  const std::vector<ParamSpec>& specs() const { return specs_; }

  /// Uniform sample in the unit cube, decoded.
  ParamPoint Sample(Rng* rng) const;

  /// Decodes unit coordinates into parameter values. The unit vector's
  /// size must equal dimension().
  Result<ParamPoint> Decode(const std::vector<double>& unit) const;

 private:
  std::vector<ParamSpec> specs_;
};

}  // namespace green

#endif  // GREEN_SEARCH_PARAM_SPACE_H_
