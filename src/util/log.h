// Minimal leveled logger. Experiments run millions of simulated events, so
// the logger is compile-time cheap when disabled and never allocates for
// suppressed levels.
#pragma once

#include <sstream>
#include <string>

namespace farm::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

// Messages below the threshold are dropped. It is kWarn, so tests and
// benchmarks stay quiet.
LogLevel log_threshold();

namespace internal {
void emit(LogLevel level, const std::string& msg);

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { emit(level_, stream_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace internal

}  // namespace farm::util

#define FARM_LOG(level)                                               \
  if (::farm::util::LogLevel::level < ::farm::util::log_threshold()) \
    ;                                                                 \
  else                                                                \
    ::farm::util::internal::LogLine(::farm::util::LogLevel::level)
