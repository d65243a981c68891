#include "green/data/amlb_suite.h"

#include <algorithm>
#include <cmath>

#include "green/common/rng.h"
#include "green/data/synthetic.h"

namespace green {

SimulationProfile SimulationProfile::Fast() { return SimulationProfile{}; }

SimulationProfile SimulationProfile::Full() {
  SimulationProfile p;
  p.max_rows = 4000;
  p.max_features = 96;
  p.max_classes = 40;
  p.row_scale = 8.0;
  p.feature_scale = 2.4;
  p.repetitions = 10;
  return p;
}

const std::vector<AmlbTaskSpec>& AmlbTable2() {
  // Table 2 of the paper, verbatim.
  static const std::vector<AmlbTaskSpec>* kSpecs =
      new std::vector<AmlbTaskSpec>{
          {"robert", 41165, 10000, 7200, 10},
          {"riccardo", 41161, 20000, 4296, 2},
          {"guillermo", 41159, 20000, 4296, 2},
          {"dilbert", 41163, 10000, 2000, 5},
          {"christine", 41142, 5418, 1636, 2},
          {"cnae-9", 1468, 1080, 856, 9},
          {"fabert", 41164, 8237, 800, 7},
          {"Fashion-MNIST", 40996, 70000, 784, 10},
          {"KDDCup09_appetency", 1111, 50000, 230, 2},
          {"mfeat-factors", 12, 2000, 216, 10},
          {"volkert", 41166, 58310, 180, 10},
          {"APSFailure", 41138, 76000, 170, 2},
          {"jasmine", 41143, 2984, 144, 2},
          {"nomao", 1486, 34465, 118, 2},
          {"albert", 41147, 425240, 78, 2},
          {"dionis", 41167, 416188, 60, 355},
          {"jannis", 41168, 83733, 54, 4},
          {"covertype", 1596, 581012, 54, 7},
          {"MiniBooNE", 41150, 130064, 50, 2},
          {"connect-4", 40668, 67557, 42, 3},
          {"kr-vs-kp", 3, 3196, 36, 2},
          {"higgs", 23512, 98050, 28, 2},
          {"helena", 41169, 65196, 27, 100},
          {"kc1", 1067, 2109, 21, 2},
          {"numerai28.6", 23517, 96320, 21, 2},
          {"credit-g", 31, 1000, 20, 2},
          {"sylvine", 41146, 5124, 20, 2},
          {"segment", 40984, 2310, 16, 7},
          {"vehicle", 54, 846, 18, 4},
          {"bank-marketing", 1461, 45211, 16, 2},
          {"Australian", 40981, 690, 14, 2},
          {"adult", 1590, 48842, 14, 2},
          {"Amazon_employee_access", 4135, 32769, 9, 2},
          {"shuttle", 40685, 58000, 9, 7},
          {"airlines", 1169, 539383, 7, 2},
          {"car", 40975, 1728, 6, 4},
          {"jungle_chess_2pcs_raw_endgame_complete", 41027, 44819, 6, 3},
          {"phoneme", 1489, 5404, 5, 2},
          {"blood-transfusion-service-center", 1464, 748, 4, 2},
      };
  return *kSpecs;
}

namespace {

uint64_t NameHash(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Result<Dataset> InstantiateAmlbTask(const AmlbTaskSpec& spec,
                                    const SimulationProfile& profile,
                                    uint64_t seed) {
  SyntheticSpec s;
  s.name = spec.name;
  s.nominal_rows = spec.instances;
  s.nominal_features = spec.features;

  const double nr = static_cast<double>(spec.instances);
  const double nf = static_cast<double>(spec.features);
  s.num_classes = std::min(spec.num_classes, profile.max_classes);
  size_t rows = static_cast<size_t>(profile.row_scale * std::sqrt(nr));
  // Keep enough rows per class that the hardest many-class tasks remain
  // learnable at simulation scale.
  rows = std::max(rows, static_cast<size_t>(30 * s.num_classes));
  s.num_rows = std::clamp(rows, profile.min_rows, profile.max_rows);
  s.num_features = std::clamp(
      static_cast<size_t>(profile.feature_scale * std::sqrt(nf)),
      profile.min_features, profile.max_features);

  // Deterministic per-task difficulty: a hash of the name seeds the knobs,
  // so "credit-g" is always the same problem regardless of the run seed.
  Rng knobs(NameHash(spec.name));
  s.num_informative = std::max<size_t>(
      2, static_cast<size_t>(static_cast<double>(s.num_features) *
                             knobs.NextUniform(0.3, 0.7)));
  s.num_categorical = static_cast<size_t>(
      static_cast<double>(s.num_features) * knobs.NextUniform(0.0, 0.4));
  s.clusters_per_class = static_cast<int>(knobs.NextInt(1, 3));
  s.separation = knobs.NextUniform(1.2, 2.6);
  s.label_noise = knobs.NextUniform(0.01, 0.12);
  s.missing_fraction = knobs.NextBool(0.3) ? knobs.NextUniform(0.0, 0.05)
                                           : 0.0;
  // Wide, many-class tasks get a little more separation so they are not
  // uniformly at chance level at simulation scale.
  if (s.num_classes > 10) s.separation += 0.8;

  s.seed = HashCombine(seed, NameHash(spec.name));
  return GenerateSynthetic(s);
}

Result<std::vector<Dataset>> InstantiateAmlbSuite(
    const SimulationProfile& profile, uint64_t seed, size_t limit) {
  const auto& specs = AmlbTable2();
  const size_t n = (limit == 0) ? specs.size()
                                : std::min(limit, specs.size());
  std::vector<Dataset> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    GREEN_ASSIGN_OR_RETURN(Dataset d,
                           InstantiateAmlbTask(specs[i], profile, seed));
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace green
