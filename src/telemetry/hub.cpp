#include "telemetry/hub.h"

#include <fstream>

#include "telemetry/export.h"
#include "util/check.h"
#include "util/log.h"

namespace farm::telemetry {

namespace {
// Process-global recorder for the FARM_CHECK failure hook; the most
// recently armed recorder wins, and disarms on destruction.
FlightRecorder* g_check_recorder = nullptr;

void on_check_failure() {
  FlightRecorder* r = g_check_recorder;
  g_check_recorder = nullptr;  // re-entrant CHECK inside the dump must not loop
  if (r) r->trigger("FARM_CHECK failure");
}
}  // namespace

Hub::Hub(HubConfig config)
    : store_(config.store_capacity),
      tracer_(config.track_capacity),
      flight_(std::make_unique<FlightRecorder>(*this)) {
  FARM_CHECK_MSG(config.silo_shards <= 1,
                 "the Hub keeps one event ring; silo_shards must be 0 or 1");
}

Hub::~Hub() = default;

FlightRecorder::~FlightRecorder() {
  if (g_check_recorder == this) {
    g_check_recorder = nullptr;
    util::set_check_failure_hook(nullptr);
  }
}

void FlightRecorder::arm(std::string path, std::size_t last_events) {
  path_ = std::move(path);
  last_events_ = last_events;
}

void FlightRecorder::disarm() {
  path_.clear();
  if (g_check_recorder == this) {
    g_check_recorder = nullptr;
    util::set_check_failure_hook(nullptr);
  }
}

void FlightRecorder::arm_on_check_failure() {
  g_check_recorder = this;
  util::set_check_failure_hook(&on_check_failure);
}

bool FlightRecorder::trigger(std::string_view reason) {
  if (path_.empty()) return false;
  std::ofstream os(path_);
  if (!os) {
    FARM_LOG(kWarn) << "flight recorder: cannot open " << path_;
    return false;
  }
  ChromeTraceOptions opt;
  opt.last_events = last_events_;
  opt.reason = std::string(reason);
  write_chrome_trace(os, hub_, opt);
  ++dumps_;
  return true;
}

}  // namespace farm::telemetry
