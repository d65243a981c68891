#include "green/common/knobs.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "green/common/logging.h"
#include "green/common/stringutil.h"

namespace green {

namespace {

/// What a row accepts; both the parse errors and the help table use it.
std::string Describe(const Knob& knob) {
  switch (knob.type) {
    case KnobType::kInt:
    case KnobType::kDouble:
      return StrFormat("%s in [%.15g, %.15g]%s",
                       knob.type == KnobType::kInt ? "an integer" : "a number",
                       knob.min, knob.max,
                       knob.zero_means_auto ? ", or 0" : "");
    case KnobType::kBool:
    case KnobType::kSwitch:
      return "0 or 1";
    case KnobType::kEnum:
      return "one of " + Join(Split(knob.choices, '|'), ", ");
    case KnobType::kShardSpec:
      return "i/n with 0 <= i < n <= 4096";
    case KnobType::kString:
      break;
  }
  return knob.choices;
}

}  // namespace

Result<KnobValue> ParseKnob(const Knob& knob, std::string_view raw) {
  const std::string text(Trim(raw));
  // Every accepted input is assigned here and returned as this one named
  // value (its initial 0 is "auto"): returning KnobValue temporaries makes
  // g++ 12 report -Wmaybe-uninitialized on the string alternative under
  // ASan+UBSan.
  KnobValue value = 0L;
  switch (knob.type) {
    case KnobType::kInt:
    case KnobType::kDouble: {
      // strtol/strtod saturate, so huge inputs clamp like any other
      // out-of-range value.
      const bool is_int = knob.type == KnobType::kInt;
      char* end = nullptr;
      const double parsed =
          is_int ? static_cast<double>(std::strtol(text.c_str(), &end, 10))
                 : std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !std::isfinite(parsed)) break;
      if (knob.zero_means_auto && parsed == 0.0) return value;
      if (knob.reject_out_of_range &&
          (parsed < knob.min || parsed > knob.max)) {
        break;
      }
      const double bounded = std::clamp(parsed, knob.min, knob.max);
      if (is_int) return value = static_cast<long>(bounded);
      return value = bounded;
    }
    case KnobType::kBool:
    case KnobType::kSwitch:
    case KnobType::kEnum: {
      const std::vector<std::string> names =
          Split(knob.type == KnobType::kEnum ? knob.choices : "0|1", '|');
      for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == text) return value = static_cast<long>(i);
      }
      break;
    }
    case KnobType::kString:
      return value = std::string(raw);
    case KnobType::kShardSpec: {
      // Both halves parse as strict integers in [0, 4096].
      constexpr Knob kPart{.type = KnobType::kInt, .max = 4096,
                           .reject_out_of_range = true};
      const std::vector<std::string> parts = Split(text, '/');
      if (parts.size() != 2) break;
      Result<KnobValue> index = ParseKnob(kPart, parts[0]);
      Result<KnobValue> count = ParseKnob(kPart, parts[1]);
      if (!index.ok() || !count.ok() ||
          std::get<long>(*index) >= std::get<long>(*count)) {
        break;
      }
      return value = ShardSpec{static_cast<int>(std::get<long>(*index)),
                               static_cast<int>(std::get<long>(*count))};
    }
  }
  return Status::InvalidArgument(StrFormat("'%.*s' is not %s",
                                           static_cast<int>(raw.size()),
                                           raw.data(),
                                           Describe(knob).c_str()));
}

KnobValues KnobValues::FromEnv() {
  KnobValues values;
  for (const Knob* knob : knob::kLibrary) values.ReadEnv(*knob);
  return values;
}

void KnobValues::ReadEnv(const Knob& knob) {
  // The only getenv in src/, bench/ and examples/ (ctest single_getenv).
  const char* raw = std::getenv(knob.env);
  if (raw == nullptr || raw[0] == '\0') return;
  const Status st = Put(knob, raw, knob.env);
  if (!st.ok()) LogWarning(st.message() + "; keeping the default");
}

Status KnobValues::Set(const Knob& knob, std::string_view raw) {
  return Put(knob, raw, knob.flag != nullptr ? knob.flag : knob.env);
}

Status KnobValues::Put(const Knob& knob, std::string_view raw,
                       const char* name) {
  Result<KnobValue> parsed = ParseKnob(knob, raw);
  if (!parsed.ok()) {
    return Status::InvalidArgument(std::string(name) + ": " +
                                   parsed.status().message());
  }
  values_[&knob] = std::move(parsed).value();
  return Status::Ok();
}

std::string KnobChoice(const Knob& knob, long index) {
  return Split(knob.choices, '|').at(static_cast<size_t>(index));
}

std::string RenderKnobTable(std::span<const Knob* const> rows) {
  std::string out =
      "| Flag | Variable | Value | Meaning |\n| --- | --- | --- | --- |\n";
  for (const Knob* knob : rows) {
    std::string value = Describe(*knob);
    if (knob->reject_out_of_range) value += "; others are rejected";
    if (knob->type == KnobType::kSwitch) {
      value = knob->env == nullptr ? "no value"
                                   : value + "; the flag takes no value";
    }
    out += StrFormat("| %s | %s | %s | %s |\n",
                     knob->flag != nullptr ? knob->flag : "-",
                     knob->env != nullptr ? knob->env : "-",
                     value.c_str(), knob->help);
  }
  return out;
}

}  // namespace green
