#include "asic/pcie.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace farm::asic {

PcieBus::PcieBus(Engine& engine, const std::string& prefix,
                 double bandwidth_bps, Duration per_request_overhead,
                 std::uint64_t loss_seed)
    : engine_(engine),
      bandwidth_bps_(bandwidth_bps),
      overhead_(per_request_overhead),
      loss_rng_(loss_seed),
      tel_(&engine.telemetry()) {
  FARM_CHECK(bandwidth_bps > 0);
  m_requests_ = tel_->counter(prefix + ".requests");
  m_bytes_ = tel_->counter(prefix + ".bytes");
  m_busy_ns_ = tel_->counter(prefix + ".busy_ns");
  m_free_at_ns_ = tel_->gauge(prefix + ".free_at_ns");
  m_dropped_ = tel_->counter(prefix + ".dropped");
}

void PcieBus::set_loss_rate(double p) {
  FARM_CHECK(p >= 0 && p <= 1);
  loss_rate_ = p;
}

void PcieBus::request(int entries, std::function<void()> on_complete) {
  FARM_CHECK(entries >= 0);
  if (!online_) {
    tel_->add(m_dropped_);
    return;
  }
  std::uint64_t transfer_bytes =
      static_cast<std::uint64_t>(entries) * sim::cost::kStatEntryBytes;
  Duration transfer = overhead_ + Duration::from_seconds(
                                      static_cast<double>(transfer_bytes) *
                                      8.0 / bandwidth_bps_);
  TimePoint start = std::max(engine_.now(), free_at_);
  free_at_ = start + transfer;
  // Per-request path: registry-only updates — a busy poll channel would
  // otherwise flood the event ring and evict sparser, more telling rows.
  tel_->count(m_requests_);
  tel_->count(m_bytes_, static_cast<double>(transfer_bytes));
  tel_->count(m_busy_ns_, static_cast<double>(transfer.count_ns()));
  tel_->level(m_free_at_ns_, static_cast<double>(free_at_.count_ns()));
  if (loss_rate_ > 0 && loss_rng_.next_bool(loss_rate_)) {
    // Channel time was spent, but the payload never arrives.
    tel_->add(m_dropped_);
    return;
  }
  engine_.schedule_at(free_at_, on_complete ? std::move(on_complete)
                                            : Engine::Callback([] {}));
}

Duration PcieBus::backlog() const {
  TimePoint now = engine_.now();
  return free_at_ > now ? free_at_ - now : Duration{};
}

}  // namespace farm::asic
