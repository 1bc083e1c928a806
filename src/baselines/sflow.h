// sFlow baseline (RFC 3176): the canonical collection-centric monitor.
//
// Agents export per-port counter records to a central collector every probe
// period, with no local triage — all analysis (e.g. HH detection) happens
// at the collector. This is the paper's primary generic baseline: its
// network load grows linearly with port count (Fig. 4) and its detection
// latency is bounded below by the probe period plus the collector path
// (Tab. 4).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "asic/switch.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"

namespace farm::baselines {

using sim::Duration;
using sim::Engine;
using sim::TimePoint;

struct SflowConfig {
  Duration probe_period = Duration::ms(100);
  int record_bytes = sim::cost::kSflowDatagramBytes;
};

// Central collector: receives per-port records, keeps rate state, and
// detects heavy hitters when a port's byte delta within one probe period
// crosses the threshold.
class SflowCollector {
 public:
  explicit SflowCollector(Engine& engine, int cpu_cores = 16);

  void set_hh_threshold(std::uint64_t bytes_per_period) {
    threshold_ = bytes_per_period;
  }

  // Transport + processing entry point, called by agents after the
  // control path delay: one datagram carrying all of a switch's port
  // records (real sFlow packs samples into shared datagrams).
  struct PortRecord {
    int port;
    std::uint64_t tx_bytes;
  };
  void ingest_batch(net::NodeId sw, const std::vector<PortRecord>& records);

  // --- Observability ---------------------------------------------------------
  // Record bytes that reached the collector ("sflow.collector.bytes").
  std::uint64_t ingress_bytes() const { return tel_->tally(m_bytes_); }
  std::uint64_t records_processed() const { return processed_; }
  sim::CpuModel& cpu() { return cpu_; }
  // (switch, port, detection time) of each HH detection event.
  struct Detection {
    net::NodeId sw;
    int port;
    TimePoint at;
  };
  const std::vector<Detection>& detections() const { return detections_; }

 private:
  Engine& engine_;
  sim::CpuModel cpu_;
  std::uint64_t threshold_ = ~0ull;
  std::unordered_map<std::uint64_t, std::uint64_t> last_bytes_;  // (sw,port)
  std::uint64_t processed_ = 0;
  std::vector<Detection> detections_;
  // Granary: collector-side load and detections, comparable against
  // bus.up.bytes / harvester.*.reports in one query.
  telemetry::Hub* tel_ = nullptr;
  telemetry::MetricId m_bytes_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_detections_ = telemetry::kInvalidMetric;
};

// Per-switch agent: polls all port counters over the PCIe bus each period
// and exports one record per port to the collector.
class SflowAgent {
 public:
  SflowAgent(Engine& engine, asic::SwitchChassis& chassis,
             SflowCollector& collector, SflowConfig config = {});
  ~SflowAgent() { stop(); }

  void start() { task_.start(); }
  void stop() { task_.stop(); }
  std::uint64_t exports() const { return exports_; }

 private:
  void on_probe();

  Engine& engine_;
  asic::SwitchChassis& chassis_;
  SflowCollector& collector_;
  SflowConfig config_;
  sim::PeriodicTask task_;
  std::uint64_t exports_ = 0;
};

}  // namespace farm::baselines
