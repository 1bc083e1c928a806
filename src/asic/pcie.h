// PCIe bus model between the switch management CPU and the ASIC.
//
// The paper measures the poll channel at 8 Mbps while the ASIC forwards at
// 100 Gbps (a 1:12500 ratio, §VI-E a) — the central bottleneck motivating
// the soil's polling aggregation. The model is a single serialized channel:
// each poll request transfers `entries × kStatEntryBytes` plus a fixed
// per-transaction overhead; requests queue FIFO.
//
// The bus counts into the engine's Granary Hub under the prefix it is
// built with (the chassis passes "pcie.<switch>"):
// `<prefix>.{requests,bytes,busy_ns,dropped}` counters and the
// `<prefix>.free_at_ns` horizon gauge. Those are the only record: the
// count accessors below read them back.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/cost_model.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace farm::asic {

using sim::Duration;
using sim::Engine;
using sim::TimePoint;

class PcieBus {
 public:
  // `prefix` names this bus's metrics; it must be unique per engine.
  PcieBus(Engine& engine, const std::string& prefix,
          double bandwidth_bps = sim::cost::kPciePollBandwidthBps,
          Duration per_request_overhead = sim::cost::kPcieRequestOverhead,
          std::uint64_t loss_seed = 0xFA17ull);

  // Queues a transfer of `entries` statistics entries; on_complete fires
  // when the data has fully crossed the bus. Under injected loss (or while
  // offline) the completion may never fire — callers that must make
  // progress arm their own timeout and retry (see Soil).
  void request(int entries, std::function<void()> on_complete);

  // --- Fault injection -----------------------------------------------------
  // Each request is independently lost with probability p (the transfer
  // still occupies the channel — the data crossed, then got corrupted).
  // The loss RNG is only consumed while p > 0, so loss-free runs are
  // byte-identical to pre-fault-injection behaviour.
  void set_loss_rate(double p);
  double loss_rate() const { return loss_rate_; }
  // Offline (switch power failure): requests vanish without occupying the
  // channel and completions never fire.
  void set_online(bool up) { online_ = up; }
  bool online() const { return online_; }
  std::uint64_t requests_dropped() const { return tel_->tally(m_dropped_); }

  // Work not yet transferred at `now` (how far behind the bus is).
  Duration backlog() const;

  std::uint64_t bytes_transferred() const { return tel_->tally(m_bytes_); }
  std::uint64_t requests_served() const { return tel_->tally(m_requests_); }
  double bandwidth_bps() const { return bandwidth_bps_; }

 private:
  Engine& engine_;
  double bandwidth_bps_;
  Duration overhead_;
  TimePoint free_at_;   // when the channel next becomes idle
  util::Rng loss_rng_;
  double loss_rate_ = 0;
  bool online_ = true;

  telemetry::Hub* tel_;
  telemetry::MetricId m_requests_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_bytes_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_busy_ns_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_free_at_ns_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_dropped_ = telemetry::kInvalidMetric;
};

}  // namespace farm::asic
