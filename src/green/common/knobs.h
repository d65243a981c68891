#ifndef GREEN_COMMON_KNOBS_H_
#define GREEN_COMMON_KNOBS_H_

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "green/common/shard.h"
#include "green/common/status.h"

namespace green {

/// How a knob's raw text is read.
enum class KnobType {
  kInt,     ///< Decimal integer, clamped to [min, max].
  kDouble,  ///< Finite number, clamped to [min, max].
  kBool,    ///< "0" or "1".
  kSwitch,  ///< Bool whose flag takes no value (presence = "1").
  kString,  ///< Any text; `choices` names it in the help table.
  kEnum,    ///< One of the '|'-separated `choices`, kept as its index.
  kShardSpec,  ///< "i/n" with 0 <= i < n <= 4096.
};

/// One row of the knob table: a setting read from a GREEN_* variable, a
/// CLI flag, or both. Every env and flag value goes through ParseKnob, so
/// both sources share one validation and clamping rule per row.
/// Defaults are not part of the row: they stay in the struct that owns
/// the field, and a loader assigns only the knobs that were set.
struct Knob {
  const char* env = nullptr;   ///< GREEN_* variable, or nullptr.
  const char* flag = nullptr;  ///< CLI flag, or nullptr.
  KnobType type = KnobType::kString;
  double min = 0.0;  ///< kInt/kDouble range.
  double max = 0.0;
  /// kInt: "0" bypasses the clamp (GREEN_JOBS=0 = all hardware threads).
  bool zero_means_auto = false;
  /// kInt/kDouble: out-of-range text is malformed instead of clamped.
  bool reject_out_of_range = false;
  /// kEnum: "a|b|c"; kString: the value's name in the help table.
  const char* choices = "";
  const char* help = "";
};

/// A parsed value: long for kInt, kBool/kSwitch (0 or 1) and kEnum (the
/// choice's index); double; std::string; ShardSpec.
using KnobValue = std::variant<long, double, std::string, ShardSpec>;

/// Validates and clamps `raw` for `knob`, ignoring surrounding blanks
/// except in kString values. Errors carry no knob name; the caller
/// prefixes the variable or flag it read.
Result<KnobValue> ParseKnob(const Knob& knob, std::string_view raw);

/// Parsed knob values, keyed by row address (rows are the constants
/// below or a caller's own static rows, never copies).
class KnobValues {
 public:
  /// Every library row's GREEN_* variable (see ReadEnv).
  static KnobValues FromEnv();

  /// Reads one row's variable. Unset or empty is skipped; a malformed
  /// value keeps the default and logs one warning naming the variable.
  void ReadEnv(const Knob& knob);

  /// Parses a flag value; a malformed value is an InvalidArgument naming
  /// the flag and leaves the set unchanged.
  Status Set(const Knob& knob, std::string_view raw);

  /// The value, if the knob was set, as the field's type T: an integer,
  /// bool or enum (kEnum values index `choices`), double, std::string or
  /// ShardSpec.
  template <typename T>
  std::optional<T> Get(const Knob& knob) const {
    const auto it = values_.find(&knob);
    if (it == values_.end()) return std::nullopt;
    if constexpr (std::is_enum_v<T> || std::is_integral_v<T>) {
      return static_cast<T>(std::get<long>(it->second));
    } else {
      return std::get<T>(it->second);
    }
  }

  /// Overwrites `*field` iff the knob was set.
  template <typename T>
  void Assign(const Knob& knob, T* field) const {
    if (std::optional<T> value = Get<T>(knob)) *field = std::move(*value);
  }

 private:
  Status Put(const Knob& knob, std::string_view raw, const char* name);

  std::map<const Knob*, KnobValue> values_;
};

/// One row's GREEN_* variable, read as ReadEnv does.
template <typename T>
std::optional<T> EnvKnob(const Knob& knob) {
  KnobValues values;
  values.ReadEnv(knob);
  return values.Get<T>(knob);
}

/// The name of choice `index` of a kEnum row.
std::string KnobChoice(const Knob& knob, long index);

/// kEnum choices "a|b|c" read off an enum's own name function for its
/// values 0..count-1, so choice i always names value i and the enum keeps
/// a single name table.
template <typename E>
std::string EnumChoices(const char* (*name)(E), int count) {
  std::string out;
  for (int i = 0; i < count; ++i) {
    out += std::string(i > 0 ? "|" : "") + name(static_cast<E>(i));
  }
  return out;
}

/// The markdown table `green_automl_cli --help` prints and README.md
/// embeds: one line per row with its flag, variable, value and help.
std::string RenderKnobTable(std::span<const Knob* const> rows);

/// The library's knobs: every GREEN_* variable, with the flag the CLI
/// accepts for it.
namespace knob {

using enum KnobType;

inline constexpr Knob kJobs{.env = "GREEN_JOBS", .flag = "--jobs",
    .type = kInt, .min = 1, .max = 4096, .zero_means_auto = true,
    .help = "Host worker threads for sweeps; 0 = all hardware threads"};
inline constexpr Knob kJournal{.env = "GREEN_JOURNAL", .flag = "--journal",
    .choices = "PATH", .help = "JSONL journal of finished sweep cells"};
inline constexpr Knob kResume{.env = "GREEN_RESUME", .flag = "--resume",
    .type = kSwitch, .help = "Load the cells already in the journal"};
inline constexpr Knob kShard{.env = "GREEN_SHARD", .flag = "--shard",
    .type = kShardSpec, .help = "Run the sweep cells shard i of n owns"};
inline constexpr Knob kRetries{.env = "GREEN_RETRIES", .flag = "--retries",
    .type = kInt, .min = 1, .max = 100, .help = "Max attempts per cell"};
inline constexpr Knob kCellTimeout{.env = "GREEN_CELL_TIMEOUT",
    .flag = "--cell-timeout", .type = kDouble, .max = 1e9,
    .help = "Host seconds before a cell times out; 0 = off"};
inline constexpr Knob kFaults{.env = "GREEN_FAULTS", .flag = "--faults",
    .choices = "SPEC", .help = "Fault injection (see common/fault.h)"};
inline constexpr Knob kScopes{.env = "GREEN_SCOPES", .flag = "--breakdown",
    .type = kSwitch, .help = "Per-scope energy table; records get scopes"};
inline constexpr Knob kTransformCache{.env = "GREEN_TRANSFORM_CACHE",
    .flag = "--transform-cache", .type = kBool,
    .help = "Memoize fitted transformer chains; results are identical"};
inline constexpr Knob kTransformCacheMb{.env = "GREEN_TRANSFORM_CACHE_MB",
    .type = kDouble, .min = 1, .max = 65536,
    .help = "LRU budget of the transform cache in MB"};
inline constexpr Knob kFull{.env = "GREEN_FULL", .type = kBool,
    .help = "Full profile: all 39 tasks at full size, 10 repetitions"};
inline constexpr Knob kServeQueue{.env = "GREEN_SERVE_QUEUE",
    .flag = "--serve-queue", .type = kInt, .min = 1, .max = 1 << 20,
    .help = "Admission queue bound (requests)"};
inline constexpr Knob kServeBatch{.env = "GREEN_SERVE_BATCH",
    .flag = "--serve-batch", .type = kInt, .min = 1, .max = 4096,
    .help = "Micro-batch size cap"};
inline constexpr Knob kServeBatchDelayMs{.env = "GREEN_SERVE_BATCH_DELAY_MS",
    .flag = "--serve-batch-delay-ms", .type = kDouble, .max = 60000,
    .help = "Virtual ms a fresh batch waits for company"};
inline constexpr Knob kServeDeadlineMs{.env = "GREEN_SERVE_DEADLINE_MS",
    .flag = "--serve-deadline-ms", .type = kDouble, .max = 3600000,
    .help = "Per-request deadline in virtual ms; 0 = none"};
inline constexpr Knob kServeEnergySloJ{.env = "GREEN_SERVE_ENERGY_SLO_J",
    .flag = "--serve-energy-slo-j", .type = kDouble, .max = 1e12,
    .help = "Per-request energy SLO in Joules; 0 = none"};
inline constexpr Knob kServePolicy{.env = "GREEN_SERVE_POLICY",
    .flag = "--serve-policy", .type = kEnum, .choices = "fail|degrade",
    .help = "Missed deadline: fail, or answer from a cheaper tier"};
inline constexpr Knob kServeShed{.env = "GREEN_SERVE_SHED",
    .flag = "--serve-shed", .type = kEnum, .choices = "newest|oldest",
    .help = "Full queue: reject the newcomer, or evict the head"};
inline constexpr Knob kTrace{.env = "GREEN_TRACE", .choices = "PATH",
    .help = "JSONL trace of every charge-scope enter and exit"};
inline constexpr Knob kTune{.env = "GREEN_TUNE", .type = kBool,
    .help = "bench/paper table5_tuned_params also re-runs the tuner live"};

inline constexpr const Knob* kLibrary[] = {
    &kJobs, &kJournal, &kResume, &kShard, &kRetries, &kCellTimeout,
    &kFaults, &kScopes, &kTransformCache, &kTransformCacheMb, &kFull,
    &kServeQueue, &kServeBatch, &kServeBatchDelayMs, &kServeDeadlineMs,
    &kServeEnergySloJ, &kServePolicy, &kServeShed, &kTrace, &kTune};

}  // namespace knob

}  // namespace green

#endif  // GREEN_COMMON_KNOBS_H_
