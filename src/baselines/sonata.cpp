#include "baselines/sonata.h"

#include <cmath>

namespace farm::baselines {

SonataProcessor::SonataProcessor(Engine& engine, SonataConfig config,
                                 int cpu_cores)
    : engine_(engine),
      config_(config),
      cpu_(engine, cpu_cores, sim::cost::kContextSwitch),
      batcher_(engine, config.micro_batch, [this] { run_batch(); }) {
  tel_ = &engine_.telemetry();
  m_bytes_ = tel_->counter("sonata.processor.bytes");
  m_detections_ = tel_->counter("sonata.processor.detections");
}

void SonataProcessor::ingest(const std::string& key, std::uint64_t bytes) {
  meter_stream(static_cast<std::uint64_t>(config_.record_bytes));
  pending_[key] += bytes;
}

void SonataProcessor::meter_stream(std::uint64_t bytes) {
  // Per-record path (one call per reduced tuple): registry-only.
  tel_->count(m_bytes_, static_cast<double>(bytes));
}

void SonataProcessor::run_batch() {
  if (pending_.empty()) return;
  auto batch = std::move(pending_);
  pending_.clear();
  // Batch evaluation costs CPU proportional to tuple count; results land
  // when the job completes (micro-batch processing delay).
  Duration demand =
      sim::cost::kCollectorRecordCpu * static_cast<std::int64_t>(batch.size());
  cpu_.submit(1, demand, [this, batch = std::move(batch)] {
    for (const auto& [key, bytes] : batch) {
      ++processed_;
      if (bytes >= threshold_) {
        detections_.push_back({key, engine_.now()});
        tel_->add(m_detections_);
      }
    }
  });
}

SonataQuery::SonataQuery(Engine& engine, asic::SwitchChassis& chassis,
                         SonataProcessor& processor, net::Filter match,
                         SonataConfig config)
    : engine_(engine),
      chassis_(chassis),
      processor_(processor),
      config_(config),
      window_task_(engine, config.window, [this] { on_window_end(); }) {
  asic::TcamRule rule;
  rule.pattern = std::move(match);
  rule.action = asic::RuleAction::kMirror;
  rule.note = "sonata";
  if (auto id = chassis_.tcam().add_rule(rule)) mirror_rule_ = *id;
  subscriber_ = chassis_.add_mirror_subscriber(
      [this](const net::PacketHeader& h, std::uint64_t count) {
        // Mirrored packets cross the PCIe bus and are reduced per key on
        // the switch CPU; the reduce itself is a simple aggregate (the
        // statefulness limit the paper criticizes).
        auto& slot = window_[h.src_ip.to_string() + ">" +
                             h.dst_ip.to_string()];
        slot.first += static_cast<std::uint64_t>(h.size_bytes) * count;
        slot.second += count;
      });
}

SonataQuery::~SonataQuery() {
  window_task_.stop();
  if (mirror_rule_ != asic::kInvalidRule)
    chassis_.tcam().remove_rule(mirror_rule_);
  if (subscriber_) chassis_.remove_mirror_subscriber(subscriber_);
}

void SonataQuery::on_window_end() {
  if (window_.empty()) return;
  auto window = std::move(window_);
  window_.clear();
  // Export: the reduce compresses the raw tuple stream by the aggregation
  // factor; the residue crosses PCIe (mirror path) and the management
  // network. One record per key carries the reduced bytes.
  std::uint64_t raw_tuples = 0;
  for (const auto& [_, v] : window) raw_tuples += v.second;
  auto exported_tuples = static_cast<std::uint64_t>(std::ceil(
      static_cast<double>(raw_tuples) * (1.0 - config_.aggregation_factor)));
  exported_tuples = std::max<std::uint64_t>(exported_tuples, window.size());
  exported_ += exported_tuples;

  // Mirrored traffic already consumed PCIe implicitly; model the reduced
  // export batch crossing the bus once.
  chassis_.pcie().request(static_cast<int>(std::min<std::uint64_t>(
                              exported_tuples, 10'000)),
                          [] {});
  chassis_.cpu().submit(3, sim::cost::kPollEntryCpu *
                               static_cast<std::int64_t>(raw_tuples));

  std::uint64_t wire_bytes =
      exported_tuples * static_cast<std::uint64_t>(config_.record_bytes);
  Duration transit =
      sim::cost::kControlPathLatency +
      Duration::from_seconds(static_cast<double>(wire_bytes) * 8.0 /
                             sim::cost::kControlLinkBandwidthBps);
  engine_.schedule_after(transit, [this, window = std::move(window),
                                   exported_tuples] {
    // Meter the whole reduced stream, deliver per-key aggregates.
    for (std::uint64_t i = 1; i < exported_tuples; ++i)
      processor_.meter_stream(static_cast<std::uint64_t>(config_.record_bytes));
    for (const auto& [key, v] : window) processor_.ingest(key, v.first);
  });
}

int NewtonQueryManager::install(asic::SwitchChassis& chassis,
                                net::Filter match) {
  int id = next_id_++;
  auto q = std::make_unique<SonataQuery>(engine_, chassis, processor_,
                                         std::move(match), config_);
  q->start();
  queries_.emplace(id, std::move(q));
  return id;
}

void NewtonQueryManager::uninstall(int id) { queries_.erase(id); }

}  // namespace farm::baselines
