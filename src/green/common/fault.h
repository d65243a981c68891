#ifndef GREEN_COMMON_FAULT_H_
#define GREEN_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "green/common/status.h"

namespace green {

/// Deterministic fault injection for exercising failure paths.
///
/// Faults are declared at named *sites* — string labels compiled into the
/// code wherever a fallible operation can be interrupted. `kFaultSites` in
/// fault.cc lists every site a `Check` call names; a spec naming any other
/// site is rejected. A `FaultInjector` holds a parsed spec of which sites
/// fail, how often, and with which failure kind; code on the hot path
/// calls `Check(site)` and propagates the returned Status like any organic
/// error. With an empty injector every Check is a branch on an empty
/// vector — cheap enough to leave compiled in.
///
/// Spec grammar (comma-separated clauses, e.g. GREEN_FAULTS):
///   site@p          every call at `site` fails with probability p
///   site#n          exactly the n-th call at `site` fails (1-based,
///                   single-shot — the canonical *transient* fault that a
///                   retry recovers)
///   ...=kind        optional failure kind suffix: fail (default,
///                   INTERNAL), timeout (DEADLINE_EXCEEDED), skip
///                   (UNIMPLEMENTED), abort (process abort, for crash /
///                   resume testing)
///
/// Examples: "run.fit@0.05", "run.fit#7=timeout",
///           "sweep.cell#5=abort,serve.predict@0.5".
enum class FaultKind { kFail, kTimeout, kSkip, kAbort };

struct FaultSpec {
  std::string site;
  double probability = 0.0;  ///< > 0 for `@p` clauses.
  int64_t nth = 0;           ///< > 0 for `#n` clauses.
  FaultKind kind = FaultKind::kFail;
};

/// Strict parser: any malformed clause, or one naming a site outside
/// `kFaultSites`, fails the whole spec.
Result<std::vector<FaultSpec>> ParseFaultSpecs(const std::string& config);

/// The Status a firing fault produces. `kAbort` does not return: it goes
/// through FatalError ("injected abort at <site>") so crash-recovery
/// paths can be tested with death tests / subprocesses.
Status MakeInjectedStatus(FaultKind kind, const std::string& site);

/// Recovers the fault site from a message produced by
/// MakeInjectedStatus (possibly wrapped in a Status::ToString prefix or
/// other context). Empty string when the message does not carry an
/// injected-fault marker — i.e. the failure was organic. This is what
/// lets failure summaries break non-ok outcomes down per fault site.
std::string InjectedFaultSite(const std::string& message);

/// Establishes a deterministic decision scope for probabilistic faults on
/// the current thread (RAII, nestable). While a scope is active, `@p`
/// decisions are a pure function of (injector seed, site, scope key,
/// per-scope call ordinal) — independent of thread interleaving, so a
/// parallel sweep injects faults into exactly the same cells as a
/// sequential one. The experiment harness opens one scope per
/// (cell, attempt).
class FaultScope {
 public:
  explicit FaultScope(std::string key);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  /// The innermost scope on this thread, or nullptr.
  static FaultScope* Current();

  const std::string& key() const { return key_; }

  /// Monotonic per-scope ordinal, consumed one per probabilistic check.
  uint64_t NextOrdinal() { return ordinal_++; }

 private:
  std::string key_;
  uint64_t ordinal_ = 0;
  FaultScope* previous_;
};

/// Seeded, thread-safe fault decision engine. Decisions are
/// deterministic: `#n` counters are per-spec atomics (deterministic under
/// a single worker; under many workers the n-th *arrival* fires), and
/// `@p` draws hash the active FaultScope when one is present (fully
/// deterministic even under parallel execution).
class FaultInjector {
 public:
  /// No faults; every Check returns OK.
  FaultInjector() = default;

  FaultInjector(std::vector<FaultSpec> specs, uint64_t seed);

  /// Strict construction from a spec string.
  static Result<FaultInjector> Parse(const std::string& config,
                                     uint64_t seed);

  /// Lenient construction for environment-supplied specs: malformed
  /// clauses are dropped with a warning instead of failing startup.
  static FaultInjector Lenient(const std::string& config, uint64_t seed);

  bool empty() const { return specs_.empty(); }
  size_t size() const { return specs_.size(); }

  /// Non-OK exactly when a fault fires at `site` for this call.
  Status Check(const char* site) const;

 private:
  struct Armed {
    FaultSpec spec;
    std::atomic<int64_t> calls{0};
    std::atomic<bool> fired{false};  ///< Single-shot latch for `#n`.
  };

  // unique_ptr because Armed holds atomics (not movable).
  std::vector<std::unique_ptr<Armed>> specs_;
  uint64_t seed_ = 0;
};

}  // namespace green

#endif  // GREEN_COMMON_FAULT_H_
