#include "green/sim/charge_trace.h"

#include "green/common/knobs.h"

namespace green {

namespace {

/// Scope names are identifier-like, but a defensive escape keeps the
/// trace valid JSON no matter what a caller passes.
std::string EscapeJson(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

ChargeTrace& ChargeTrace::Instance() {
  static ChargeTrace* kInstance = new ChargeTrace();
  return *kInstance;
}

ChargeTrace::ChargeTrace() { ReopenFromEnv(); }

void ChargeTrace::ReopenFromEnv() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  enabled_.store(false, std::memory_order_relaxed);
  const std::string path =
      EnvKnob<std::string>(knob::kTrace).value_or(std::string());
  if (path.empty()) return;
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    std::fprintf(stderr, "GREEN_TRACE: cannot open %s; tracing disabled\n",
                 path.c_str());
    return;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void ChargeTrace::Enter(const std::string& path, double now) {
  if (!enabled()) return;
  WriteLine("enter", path, now, 0.0, /*has_duration=*/false);
}

void ChargeTrace::Exit(const std::string& path, double now,
                       double duration) {
  if (!enabled()) return;
  WriteLine("exit", path, now, duration, /*has_duration=*/true);
}

void ChargeTrace::WriteLine(const char* event, const std::string& path,
                            double now, double duration,
                            bool has_duration) {
  const std::string escaped = EscapeJson(path);
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  if (has_duration) {
    std::fprintf(file_, "{\"ev\":\"%s\",\"path\":\"%s\",\"t\":%.10g,\"dt\":%.10g}\n",
                 event, escaped.c_str(), now, duration);
  } else {
    std::fprintf(file_, "{\"ev\":\"%s\",\"path\":\"%s\",\"t\":%.10g}\n",
                 event, escaped.c_str(), now);
  }
  std::fflush(file_);
  events_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace green
