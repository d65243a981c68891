#ifndef GREEN_BENCH_UTIL_INVARIANCE_H_
#define GREEN_BENCH_UTIL_INVARIANCE_H_

#include <string>
#include <vector>

#include "green/bench_util/experiment.h"

namespace green {

/// One sweep whose results must not depend on how it is executed.
struct SweepCase {
  ExperimentConfig config;
  /// Replaces the config's AMLB suite when non-empty.
  std::vector<Dataset> suite;
  std::vector<std::string> systems;
  std::vector<double> budgets;
  std::vector<SweepVariant> variants = {SweepVariant{}};
};

/// Ok iff `records` serialize byte-identically to `reference`, record by
/// record, and their total execution kWh matches within 1e-9 relative
/// (journal-loaded doubles round-trip through %.10g text); otherwise the
/// error names the first cell that differs.
Status CompareRecords(const std::vector<RunRecord>& reference,
                      const std::vector<RunRecord>& records);

/// An execution strategy that must leave a sweep's record stream, energy
/// totals and scope trees unchanged. The set is fixed: a new knob that
/// must not change results adds one kind here and one row in
/// tests/invariance_test.cc.
struct InvarianceStrategy {
  enum class Kind {
    kJobs,      ///< The sweep on `n` host worker threads.
    kShards,    ///< `n` >= 2 shards swept in turn at 2 jobs, each owning
                ///< its round-robin slice, journals merged.
    kCacheOff,  ///< The transform cache disabled; the reference's must
                ///< have seen traffic.
    kResume,    ///< The journal cut to its first half, then resumed.
  };
  Kind kind = Kind::kJobs;
  int n = 0;

  static InvarianceStrategy Jobs(int n) { return {Kind::kJobs, n}; }
  static InvarianceStrategy Shards(int n) { return {Kind::kShards, n}; }
  static InvarianceStrategy CacheOff() { return {Kind::kCacheOff, 0}; }
  static InvarianceStrategy Resume() { return {Kind::kResume, 0}; }

  /// "jobs=4", "3 shards", "cache off", "resume".
  std::string Name() const;
};

/// Runs a case's reference sweep once, then the same sweep under each
/// strategy, and checks per strategy that CompareRecords holds against
/// the reference and, when the case collects scopes, that every ok
/// cell's scope energies conserve. The reference journals its cells (the
/// resume strategy cuts that journal); journals go to a fresh directory
/// under the system temp directory, removed afterwards.
class InvarianceMatrix {
 public:
  explicit InvarianceMatrix(SweepCase sweep_case)
      : case_(std::move(sweep_case)) {}

  /// Ok iff every strategy holds. The first failure names the strategy
  /// and the first cell that differs.
  Status Check(const std::vector<InvarianceStrategy>& strategies);

  /// The reference sweep's records, valid once Check has run the
  /// reference.
  const std::vector<RunRecord>& reference() const { return reference_; }

 private:
  Status CheckIn(const std::string& scratch,
                 const std::vector<InvarianceStrategy>& strategies);
  Result<std::vector<RunRecord>> Run(
      const InvarianceStrategy& strategy, const std::string& scratch,
      const TransformCacheStats& reference_cache);
  Result<std::vector<RunRecord>> Sweep(ExperimentRunner* runner) const;

  SweepCase case_;
  std::vector<RunRecord> reference_;
};

}  // namespace green

#endif  // GREEN_BENCH_UTIL_INVARIANCE_H_
