#include "baselines/sflow.h"

namespace farm::baselines {

SflowCollector::SflowCollector(Engine& engine, int cpu_cores)
    : engine_(engine), cpu_(engine, cpu_cores, sim::cost::kContextSwitch) {
  tel_ = &engine_.telemetry();
  m_bytes_ = tel_->counter("sflow.collector.bytes");
  m_detections_ = tel_->counter("sflow.collector.detections");
}

void SflowCollector::ingest_batch(net::NodeId sw,
                                  const std::vector<PortRecord>& records) {
  tel_->add(m_bytes_,
            static_cast<double>(
                static_cast<std::uint64_t>(sim::cost::kSflowDatagramBytes) *
                records.size()));
  // Records cost collector CPU; detection happens when the batch is
  // actually processed (queueing under load delays detection — the
  // collector bottleneck the paper describes).
  cpu_.submit(1,
              sim::cost::kCollectorRecordCpu *
                  static_cast<std::int64_t>(records.size()),
              [this, sw, records] {
                for (const auto& r : records) {
                  ++processed_;
                  std::uint64_t key =
                      (std::uint64_t(sw) << 16) | std::uint64_t(r.port);
                  auto it = last_bytes_.find(key);
                  bool seen = it != last_bytes_.end();
                  std::uint64_t before = seen ? it->second : 0;
                  last_bytes_[key] = r.tx_bytes;
                  if (seen && r.tx_bytes - before >= threshold_) {
                    detections_.push_back({sw, r.port, engine_.now()});
                    tel_->add(m_detections_);
                  }
                }
              });
}

SflowAgent::SflowAgent(Engine& engine, asic::SwitchChassis& chassis,
                       SflowCollector& collector, SflowConfig config)
    : engine_(engine),
      chassis_(chassis),
      collector_(collector),
      config_(config),
      task_(engine, config.probe_period, [this] { on_probe(); }) {}

void SflowAgent::on_probe() {
  // Counter read crosses the PCIe bus (all ports in one transfer), then the
  // agent packs the per-port records into datagrams and ships them to the
  // collector over the management network. The agent does no analysis.
  int ports = chassis_.n_ifaces();
  chassis_.pcie().request(ports, [this, ports] {
    chassis_.cpu().submit(2, sim::cost::kSflowSampleCpu);
    std::vector<SflowCollector::PortRecord> records;
    records.reserve(static_cast<std::size_t>(ports));
    for (int p = 0; p < ports; ++p) {
      records.push_back({p, chassis_.port_stats(p).tx_bytes});
      ++exports_;
    }
    Duration transit =
        sim::cost::kControlPathLatency +
        Duration::from_seconds(config_.record_bytes * 8.0 * ports /
                               sim::cost::kControlLinkBandwidthBps);
    net::NodeId sw = chassis_.node();
    engine_.schedule_after(transit, [this, sw, records = std::move(records)] {
      collector_.ingest_batch(sw, records);
    });
  });
}

}  // namespace farm::baselines
