#include "green/common/fault.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <utility>

#include "green/common/logging.h"
#include "green/common/rng.h"
#include "green/common/stringutil.h"

namespace green {

namespace {

thread_local FaultScope* g_current_scope = nullptr;

/// Every site that a `FaultInjector::Check` call in the code names. A spec
/// naming any other site would arm nothing, so ParseClause rejects it.
constexpr const char* kFaultSites[] = {
    "run.fit",        "run.predict", "askl.metastore.build", "sweep.cell",
    "journal.append", "serve.admit", "serve.batch",          "serve.predict",
};

Status CheckKnownSite(const std::string& site) {
  for (const char* known : kFaultSites) {
    if (site == known) return Status::Ok();
  }
  const std::vector<std::string> known(std::begin(kFaultSites),
                                       std::end(kFaultSites));
  return Status::InvalidArgument("unknown fault site '" + site +
                                 "' (known: " + Join(known, ", ") + ")");
}

Result<FaultKind> ParseKind(const std::string& word) {
  if (word == "fail") return FaultKind::kFail;
  if (word == "timeout") return FaultKind::kTimeout;
  if (word == "skip") return FaultKind::kSkip;
  if (word == "abort") return FaultKind::kAbort;
  return Status::InvalidArgument("unknown fault kind '" + word +
                                 "' (want fail|timeout|skip|abort)");
}

Result<FaultSpec> ParseClause(const std::string& clause) {
  FaultSpec spec;
  std::string body = clause;
  // The kind suffix is split at the last '=' so site names containing '='
  // never arise; sites are identifiers like "run.fit".
  size_t eq = body.rfind('=');
  if (eq != std::string::npos) {
    GREEN_ASSIGN_OR_RETURN(spec.kind, ParseKind(body.substr(eq + 1)));
    body = body.substr(0, eq);
  }
  size_t at = body.rfind('@');
  size_t hash = body.rfind('#');
  if (at != std::string::npos && hash != std::string::npos) {
    return Status::InvalidArgument("fault clause '" + clause +
                                   "' mixes '@' and '#'");
  }
  if (at == std::string::npos && hash == std::string::npos) {
    return Status::InvalidArgument("fault clause '" + clause +
                                   "' needs 'site@p' or 'site#n'");
  }
  size_t sep = (at != std::string::npos) ? at : hash;
  spec.site = body.substr(0, sep);
  if (spec.site.empty()) {
    return Status::InvalidArgument("fault clause '" + clause +
                                   "' has an empty site");
  }
  GREEN_RETURN_IF_ERROR(CheckKnownSite(spec.site));
  const std::string arg = body.substr(sep + 1);
  if (arg.empty()) {
    return Status::InvalidArgument("fault clause '" + clause +
                                   "' has an empty argument");
  }
  errno = 0;
  char* end = nullptr;
  if (at != std::string::npos) {
    double p = std::strtod(arg.c_str(), &end);
    if (end == nullptr || *end != '\0' || errno == ERANGE) {
      return Status::InvalidArgument("bad probability in fault clause '" +
                                     clause + "'");
    }
    if (!(p > 0.0 && p <= 1.0)) {
      return Status::InvalidArgument("fault probability must be in (0, 1], got '" +
                                     arg + "'");
    }
    spec.probability = p;
  } else {
    long long n = std::strtoll(arg.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE || n < 1 ||
        n > 1000000000LL) {
      return Status::InvalidArgument("bad call index in fault clause '" +
                                     clause + "' (want 1..1e9)");
    }
    spec.nth = static_cast<int64_t>(n);
  }
  return spec;
}

}  // namespace

Result<std::vector<FaultSpec>> ParseFaultSpecs(const std::string& config) {
  std::vector<FaultSpec> specs;
  size_t pos = 0;
  while (pos <= config.size()) {
    size_t comma = config.find(',', pos);
    if (comma == std::string::npos) comma = config.size();
    // Trim surrounding whitespace from the clause.
    size_t begin = pos;
    size_t end = comma;
    while (begin < end && std::isspace(static_cast<unsigned char>(config[begin]))) {
      ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(config[end - 1]))) {
      --end;
    }
    if (end > begin) {
      GREEN_ASSIGN_OR_RETURN(FaultSpec spec,
                             ParseClause(config.substr(begin, end - begin)));
      specs.push_back(std::move(spec));
    }
    pos = comma + 1;
  }
  return specs;
}

Status MakeInjectedStatus(FaultKind kind, const std::string& site) {
  switch (kind) {
    case FaultKind::kFail:
      return Status::Internal("injected fault at " + site);
    case FaultKind::kTimeout:
      return Status::DeadlineExceeded("injected timeout at " + site);
    case FaultKind::kSkip:
      return Status::Unimplemented("injected skip at " + site);
    case FaultKind::kAbort:
      FatalError("injected abort at " + site);
  }
  return Status::Internal("injected fault at " + site);
}

std::string InjectedFaultSite(const std::string& message) {
  for (const char* marker :
       {"injected fault at ", "injected timeout at ", "injected skip at ",
        "injected abort at "}) {
    const size_t pos = message.find(marker);
    if (pos == std::string::npos) continue;
    std::string site = message.substr(pos + std::strlen(marker));
    // Injected statuses end at the site name; if other context was
    // appended after it (" (while ...)", "; retry ..."), cut at the
    // first character that cannot be part of a site identifier.
    const size_t end = site.find_first_not_of(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        "0123456789._-");
    if (end != std::string::npos) site.resize(end);
    return site;
  }
  return std::string();
}

FaultScope::FaultScope(std::string key)
    : key_(std::move(key)), previous_(g_current_scope) {
  g_current_scope = this;
}

FaultScope::~FaultScope() { g_current_scope = previous_; }

FaultScope* FaultScope::Current() { return g_current_scope; }

FaultInjector::FaultInjector(std::vector<FaultSpec> specs, uint64_t seed)
    : seed_(seed) {
  specs_.reserve(specs.size());
  for (auto& spec : specs) {
    auto armed = std::make_unique<Armed>();
    armed->spec = std::move(spec);
    specs_.push_back(std::move(armed));
  }
}

Result<FaultInjector> FaultInjector::Parse(const std::string& config,
                                           uint64_t seed) {
  GREEN_ASSIGN_OR_RETURN(std::vector<FaultSpec> specs,
                         ParseFaultSpecs(config));
  return FaultInjector(std::move(specs), seed);
}

FaultInjector FaultInjector::Lenient(const std::string& config,
                                     uint64_t seed) {
  std::vector<FaultSpec> kept;
  size_t pos = 0;
  while (pos <= config.size()) {
    size_t comma = config.find(',', pos);
    if (comma == std::string::npos) comma = config.size();
    std::string clause = config.substr(pos, comma - pos);
    Result<std::vector<FaultSpec>> parsed = ParseFaultSpecs(clause);
    if (parsed.ok()) {
      for (auto& spec : *parsed) kept.push_back(std::move(spec));
    } else {
      LogWarning("GREEN_FAULTS: dropping clause: " +
                 parsed.status().ToString());
    }
    pos = comma + 1;
  }
  return FaultInjector(std::move(kept), seed);
}

Status FaultInjector::Check(const char* site) const {
  if (specs_.empty()) return Status::Ok();
  for (const auto& armed : specs_) {
    const FaultSpec& spec = armed->spec;
    if (spec.site != site) continue;
    if (spec.nth > 0) {
      int64_t call = armed->calls.fetch_add(1, std::memory_order_relaxed) + 1;
      if (call == spec.nth &&
          !armed->fired.exchange(true, std::memory_order_relaxed)) {
        return MakeInjectedStatus(spec.kind, spec.site);
      }
      continue;
    }
    // Probabilistic clause. When a FaultScope is active the draw is a
    // pure function of (seed, site, scope key, per-scope ordinal) —
    // identical no matter which thread runs the cell. Outside any scope,
    // fall back to a per-spec arrival counter (deterministic only under
    // sequential execution).
    uint64_t h = HashCombine(seed_, HashString(site));
    FaultScope* scope = FaultScope::Current();
    if (scope != nullptr) {
      h = HashCombine(h, HashString(scope->key().c_str()));
      h = HashCombine(h, scope->NextOrdinal());
    } else {
      int64_t call = armed->calls.fetch_add(1, std::memory_order_relaxed);
      h = HashCombine(h, static_cast<uint64_t>(call));
    }
    double u = static_cast<double>(SplitMix64(&h) >> 11) * 0x1.0p-53;
    if (u < spec.probability) {
      return MakeInjectedStatus(spec.kind, spec.site);
    }
  }
  return Status::Ok();
}

}  // namespace green
