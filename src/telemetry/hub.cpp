#include "telemetry/hub.h"

#include <fstream>

#include "telemetry/export.h"
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
    : store_(SiloConfig{.shards = config.silo_shards,
                        .capacity = config.store_capacity}),
      tracer_(config.track_capacity),
      flight_(std::make_unique<FlightRecorder>(*this)) {}

Hub::~Hub() = default;

void Hub::publish_silo_gauges() {
  if (shard_gauges_.empty()) {
    shard_gauges_.reserve(store_.shard_count());
    for (std::size_t i = 0; i < store_.shard_count(); ++i) {
      std::string base = "silo.shard." + std::to_string(i);
      shard_gauges_.push_back({gauge(base + ".appended"),
                               gauge(base + ".events"),
                               gauge(base + ".dropped")});
    }
  }
  for (std::size_t i = 0; i < shard_gauges_.size(); ++i) {
    const EventStore& s = store_.shard(i);
    // data_appended, not total_appended: alert transition marks land in
    // these shards too, and a staleness rule watching .appended must not
    // be reset by its own firing mark.
    level(shard_gauges_[i][0], static_cast<double>(s.data_appended()));
    level(shard_gauges_[i][1], static_cast<double>(s.size()));
    level(shard_gauges_[i][2], static_cast<double>(s.dropped()));
  }
}

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
