#include "util/log.h"

#include <cstdio>

#include "util/time.h"

namespace farm::util {

namespace {
const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    default:
      return "?";
  }
}
}  // namespace

LogLevel log_threshold() { return LogLevel::kWarn; }

namespace internal {
void emit(LogLevel level, const std::string& msg) {
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}
}  // namespace internal

std::string Duration::to_string() const {
  char buf[64];
  if (ns_ % 1'000'000'000 == 0)
    std::snprintf(buf, sizeof buf, "%llds", static_cast<long long>(ns_ / 1'000'000'000));
  else if (ns_ % 1'000'000 == 0)
    std::snprintf(buf, sizeof buf, "%lldms", static_cast<long long>(ns_ / 1'000'000));
  else if (ns_ % 1'000 == 0)
    std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(ns_ / 1'000));
  else
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(ns_));
  return buf;
}

std::string TimePoint::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "t=%.6fs", seconds());
  return buf;
}

}  // namespace farm::util
