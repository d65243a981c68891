#include "green/search/param_space.h"

#include <cmath>

#include "green/common/logging.h"
#include "green/common/mathutil.h"

namespace green {

ParamSpec ParamSpec::Double(std::string name, double lo, double hi,
                            bool log_scale) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.kind = Kind::kDouble;
  spec.lo = lo;
  spec.hi = hi;
  spec.log_scale = log_scale;
  return spec;
}

ParamSpec ParamSpec::Int(std::string name, int lo, int hi, bool log_scale) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.kind = Kind::kInt;
  spec.lo = lo;
  spec.hi = hi;
  spec.log_scale = log_scale;
  return spec;
}

ParamSpec ParamSpec::Categorical(std::string name,
                                 std::vector<std::string> categories) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.kind = Kind::kCategorical;
  spec.categories = std::move(categories);
  return spec;
}

void ParamSpace::Add(ParamSpec spec) {
  GREEN_CHECK(spec.kind != ParamSpec::Kind::kCategorical ||
              !spec.categories.empty());
  specs_.push_back(std::move(spec));
}

ParamPoint ParamSpace::Sample(Rng* rng) const {
  std::vector<double> unit(specs_.size());
  for (double& u : unit) u = rng->NextDouble();
  auto decoded = Decode(unit);
  GREEN_CHECK(decoded.ok());
  return std::move(decoded).value();
}

Result<ParamPoint> ParamSpace::Decode(
    const std::vector<double>& unit) const {
  if (unit.size() != specs_.size()) {
    return Status::InvalidArgument("unit vector dimension mismatch");
  }
  ParamPoint point;
  point.unit = unit;
  for (size_t i = 0; i < specs_.size(); ++i) {
    const ParamSpec& spec = specs_[i];
    const double u = Clamp(unit[i], 0.0, 1.0);
    switch (spec.kind) {
      case ParamSpec::Kind::kDouble: {
        double v = 0.0;
        if (spec.log_scale) {
          const double llo = std::log(spec.lo);
          const double lhi = std::log(spec.hi);
          v = std::exp(llo + (lhi - llo) * u);
        } else {
          v = spec.lo + (spec.hi - spec.lo) * u;
        }
        point.values[spec.name] = v;
        break;
      }
      case ParamSpec::Kind::kInt: {
        double v = 0.0;
        if (spec.log_scale) {
          const double llo = std::log(spec.lo);
          const double lhi = std::log(spec.hi);
          v = std::exp(llo + (lhi - llo) * u);
        } else {
          // +1 so the upper bound is reachable with u just below 1.
          v = spec.lo + (spec.hi - spec.lo + 1.0) * u;
        }
        point.values[spec.name] =
            Clamp(std::floor(v), spec.lo, spec.hi);
        break;
      }
      case ParamSpec::Kind::kCategorical: {
        const size_t n = spec.categories.size();
        size_t idx = static_cast<size_t>(u * static_cast<double>(n));
        if (idx >= n) idx = n - 1;
        point.choices[spec.name] = spec.categories[idx];
        break;
      }
    }
  }
  return point;
}

}  // namespace green
