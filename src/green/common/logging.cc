#include "green/common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace green {

namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

void Log(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) <
      g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), message.c_str());
}

void LogDebug(const std::string& message) { Log(LogLevel::kDebug, message); }
void LogInfo(const std::string& message) { Log(LogLevel::kInfo, message); }
void LogWarning(const std::string& message) {
  Log(LogLevel::kWarning, message);
}

void FatalError(const std::string& message) {
  std::fprintf(stderr, "[FATAL] %s\n", message.c_str());
  std::abort();
}

}  // namespace green
