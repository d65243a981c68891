#ifndef GREEN_COMMON_LOGGING_H_
#define GREEN_COMMON_LOGGING_H_

#include <string>

namespace green {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Process-wide minimum level; messages below it are dropped. Default: Info.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Writes "[LEVEL] message" to stderr if `level` passes the filter.
void Log(LogLevel level, const std::string& message);

void LogDebug(const std::string& message);
void LogInfo(const std::string& message);
void LogWarning(const std::string& message);

/// Aborts the process with a message. Used for programming errors only
/// (violated preconditions), never for data-dependent failures.
[[noreturn]] void FatalError(const std::string& message);

/// Precondition check that survives in release builds.
#define GREEN_CHECK(cond)                                              \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::green::FatalError(std::string("CHECK failed: " #cond " at ") + \
                          __FILE__ + ":" + std::to_string(__LINE__));  \
    }                                                                  \
  } while (0)

}  // namespace green

#endif  // GREEN_COMMON_LOGGING_H_
