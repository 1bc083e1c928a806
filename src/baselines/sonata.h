// Sonata / Newton baseline: stream-processing telemetry.
//
// The switch-local part of a query mirrors matched traffic to the CPU and
// reduces it per window to (key, bytes) tuples; the reduced stream is
// shipped to a Spark-Streaming-like processor that evaluates the query in
// micro-batches. Per §VI-B we grant the switch-local reduce an aggregation
// factor (default 75%: only a quarter of the raw tuple volume leaves the
// switch — the best achievable with HH churn ≤ 1/min). Detection latency
// is dominated by window + micro-batch alignment + processing, which is
// what puts Sonata at seconds where FARM reacts in milliseconds (Tab. 4).
//
// Newton (CoNEXT'20) inherits this pipeline but adds dynamic query
// (un)loading and cross-switch stream merging; `NewtonQueryManager` models
// exactly that on top of the same processor.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "asic/switch.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"

namespace farm::baselines {

using sim::Duration;
using sim::Engine;
using sim::TimePoint;

struct SonataConfig {
  Duration window = Duration::sec(1);       // switch-local reduce window
  Duration micro_batch = Duration::sec(2);  // Spark batch interval
  double aggregation_factor = 0.75;         // tuple-volume reduction
  int record_bytes = sim::cost::kSonataRecordBytes;
};

// Central stream processor (Spark Streaming stand-in). Queries register
// reduce streams; the processor evaluates HH per key in micro-batches.
class SonataProcessor {
 public:
  SonataProcessor(Engine& engine, SonataConfig config, int cpu_cores = 32);
  ~SonataProcessor() { batcher_.stop(); }

  void set_hh_threshold(std::uint64_t bytes_per_window) {
    threshold_ = bytes_per_window;
  }
  void start() { batcher_.start(); }

  // A reduced tuple from a switch (already delayed by the control path).
  void ingest(const std::string& key, std::uint64_t bytes);
  // Wire bytes that reached the processor without carrying a distinct key
  // (the duplicate records of a reduced stream); metered only.
  void meter_stream(std::uint64_t bytes);

  struct Detection {
    std::string key;
    TimePoint at;
  };
  const std::vector<Detection>& detections() const { return detections_; }
  std::uint64_t tuples_processed() const { return processed_; }

 private:
  void run_batch();

  Engine& engine_;
  SonataConfig config_;
  sim::CpuModel cpu_;
  sim::PeriodicTask batcher_;
  std::uint64_t threshold_ = ~0ull;
  std::map<std::string, std::uint64_t> pending_;  // key → bytes this batch
  std::uint64_t processed_ = 0;
  std::vector<Detection> detections_;
  // Granary: processor-side load and detections.
  telemetry::Hub* tel_ = nullptr;
  telemetry::MetricId m_bytes_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_detections_ = telemetry::kInvalidMetric;
};

// Switch-local part of one query: mirror + windowed reduce + export.
class SonataQuery {
 public:
  SonataQuery(Engine& engine, asic::SwitchChassis& chassis,
              SonataProcessor& processor, net::Filter match,
              SonataConfig config = {});
  ~SonataQuery();

  void start() { window_task_.start(); }
  void stop() { window_task_.stop(); }
  std::uint64_t tuples_exported() const { return exported_; }

 private:
  void on_window_end();

  Engine& engine_;
  asic::SwitchChassis& chassis_;
  SonataProcessor& processor_;
  SonataConfig config_;
  asic::RuleId mirror_rule_ = asic::kInvalidRule;
  asic::SamplerId subscriber_ = 0;
  sim::PeriodicTask window_task_;
  // Window state: per-key byte and tuple (packet) counts.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> window_;
  std::uint64_t exported_ = 0;
};

// Newton: dynamic query installation on top of the Sonata pipeline.
class NewtonQueryManager {
 public:
  NewtonQueryManager(Engine& engine, SonataProcessor& processor,
                     SonataConfig config = {})
      : engine_(engine), processor_(processor), config_(config) {}

  // Installs a query on a switch at runtime (no reboot — Newton's pitch);
  // returns an id for uninstall.
  int install(asic::SwitchChassis& chassis, net::Filter match);
  void uninstall(int id);
  std::size_t active_queries() const { return queries_.size(); }

 private:
  Engine& engine_;
  SonataProcessor& processor_;
  SonataConfig config_;
  int next_id_ = 1;
  std::map<int, std::unique_ptr<SonataQuery>> queries_;
};

}  // namespace farm::baselines
