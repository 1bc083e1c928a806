#include "runtime/soil.h"

#include <algorithm>

#include "telemetry/prof.h"
#include "util/log.h"

namespace farm::runtime {

namespace {
constexpr sim::TaskId kSoilTask = 1;  // the soil's own CPU identity
// Lost poll transfers are re-issued at most this many times per round; a
// round that exhausts the budget is abandoned (the next periodic firing
// starts fresh).
constexpr int kMaxPollRetries = 3;
}

Soil::Soil(sim::Engine& engine, asic::SwitchChassis& chassis,
           SoilConfig config, SoilNetwork* network)
    : engine_(engine),
      chassis_(chassis),
      config_(config),
      network_(network),
      exec_cost_([](const std::string&) { return sim::Duration::ms(10); }),
      rng_(0x501Cull ^ chassis.node()) {
  tel_ = &engine_.telemetry();
  const std::string p = "soil." + chassis_.name();
  track_ = tel_->track(p);
  m_poll_requests_ = tel_->counter(p + ".poll_requests");
  m_poll_timeouts_ = tel_->counter(p + ".poll_timeouts");
  m_poll_retries_ = tel_->counter(p + ".poll_retries");
  m_polls_abandoned_ = tel_->counter(p + ".polls_abandoned");
  m_poll_deliveries_ = tel_->counter(p + ".poll_deliveries");
  m_poll_lateness_ms_ = tel_->histogram(
      p + ".poll_lateness_ms",
      telemetry::HistogramSpec::exponential(0.01, 4.0, 12));
  m_tcam_mon_frac_ = tel_->gauge("tcam." + chassis_.name() + ".mon_frac");
  publish_tcam_occupancy();
}

void Soil::publish_tcam_occupancy() {
  const int cap = chassis_.tcam().capacity(asic::TcamRegion::kMonitoring);
  if (cap <= 0) return;
  tel_->level(m_tcam_mon_frac_,
              static_cast<double>(chassis_.tcam().used(
                  asic::TcamRegion::kMonitoring)) /
                  static_cast<double>(cap));
}

Soil::~Soil() {
  for (auto& seed : seeds_) seed->stop();
  for (auto& reg : regs_) {
    engine_.cancel(reg->timer);
    if (reg->sampler) chassis_.remove_sampler(reg->sampler);
  }
}

void Soil::crash() {
  for (auto& seed : seeds_) seed->stop();
  for (auto& reg : regs_) {
    engine_.cancel(reg->timer);
    if (reg->sampler) chassis_.remove_sampler(reg->sampler);
  }
  regs_.clear();
  groups_.clear();  // periodic group tasks stop in their destructors
  seeds_.clear();
  std::fill(resident_.begin(), resident_.end(), nullptr);
}

Seed* Soil::deploy(SeedId id, std::shared_ptr<MachineImage> image,
                   std::unordered_map<std::string, Value> externals,
                   std::optional<ResourcesValue> allocation,
                   const SeedSnapshot* snapshot) {
  FARM_CHECK_MSG(find(id) == nullptr, "seed already deployed");
  const std::uint32_t ordinal = intern(id);
  auto seed = std::make_unique<Seed>(std::move(id), std::move(image), *this,
                                     std::move(externals));
  Seed* raw = seed.get();
  raw->ordinal_ = ordinal;
  resident_[ordinal] = raw;
  seeds_.push_back(std::move(seed));
  raw->allocation_ = allocation.value_or(almanac::kReferenceAlloc);
  if (snapshot)
    raw->start_from(*snapshot);
  else
    raw->start();
  return raw;
}

bool Soil::undeploy(const SeedId& id) {
  auto it = std::find_if(seeds_.begin(), seeds_.end(), [&](const auto& s) {
    return s->id() == id;
  });
  if (it == seeds_.end()) return false;
  (*it)->stop();
  clear_registrations(**it, /*drop_orphaned_poll_rules=*/true);
  resident_[(*it)->ordinal_] = nullptr;
  seeds_.erase(it);
  return true;
}

Seed* Soil::find(const SeedId& id) {
  auto it = ordinals_.find(id);
  return it == ordinals_.end() ? nullptr : resident_[it->second];
}

std::uint32_t Soil::intern(const SeedId& id) {
  auto [it, added] = ordinals_.try_emplace(
      id, static_cast<std::uint32_t>(resident_.size()));
  if (added) resident_.push_back(nullptr);
  return it->second;
}

std::vector<Seed*> Soil::seeds() {
  std::vector<Seed*> out;
  out.reserve(seeds_.size());
  for (auto& s : seeds_) out.push_back(s.get());
  return out;
}

// --- Resources ---------------------------------------------------------------

ResourcesValue Soil::allocation(const Seed& seed) const {
  return seed.allocation();
}

void Soil::set_allocation(const SeedId& id, const ResourcesValue& alloc) {
  Seed* seed = find(id);
  if (!seed) return;
  seed->allocation_ = alloc;
  seed->on_realloc();
  // Poll intervals may depend on the allocation (ival = f(res)); seeds
  // whose trigger specs were initialized from res() re-arm via the realloc
  // handler; independent of that, group periods get refreshed.
  refresh_triggers(*seed);
}

ResourcesValue Soil::total_capacity() const {
  const auto& c = chassis_.config();
  return ResourcesValue{
      static_cast<double>(c.cpu_cores), static_cast<double>(c.ram_mb),
      static_cast<double>(c.tcam_monitoring_reserved),
      c.pcie_bandwidth_bps / 1e6};
}

// --- Seed-facing services -------------------------------------------------------

sim::Duration Soil::comm_latency() const {
  using namespace sim::cost;
  if (config_.seeds_as_threads) return kSharedBufferMsgLatency;
  return kRpcMsgBaseLatency +
         kRpcPerSeedDispatch * static_cast<std::int64_t>(seeds_.size());
}

void Soil::seed_send(Seed& seed, const Value& payload,
                     const SendTarget& target) {
  chassis_.cpu().submit(seed.cpu_task(), sim::cost::kPollWakeupCpu);
  if (!network_) return;
  if (target.to_harvester) {
    network_->to_harvester(seed.id(), node(), payload);
  } else {
    network_->to_machine(seed.id(), node(), target.machine, target.dst,
                         payload);
  }
}

void Soil::seed_exec(Seed& seed, const std::string& command) {
  chassis_.cpu().submit(seed.cpu_task(), exec_cost_(command));
}

void Soil::add_monitor_rule(Seed& seed, asic::TcamRule rule) {
  rule.region = asic::TcamRegion::kMonitoring;
  if (rule.note.empty()) rule.note = seed.id().to_string();
  if (!chassis_.tcam().add_rule(rule)) {
    FARM_LOG(kWarn) << seed.id().to_string()
                    << ": monitoring TCAM region full, rule dropped";
  }
  publish_tcam_occupancy();
}

void Soil::remove_monitor_rule(const net::Filter& pattern) {
  chassis_.tcam().remove_rules(pattern, asic::TcamRegion::kMonitoring);
  publish_tcam_occupancy();
}

std::optional<asic::TcamRule> Soil::get_monitor_rule(
    const net::Filter& pattern) {
  const asic::TcamRule* r =
      chassis_.tcam().find(pattern, asic::TcamRegion::kMonitoring);
  return r ? std::optional(*r) : std::nullopt;
}

void Soil::deliver_to_seed(const SeedId& id, const Value& payload,
                           bool from_harvester,
                           const std::string& from_machine) {
  // Interned even when no seed holds the id yet: one deployed under it
  // before the message lands still gets it.
  const std::uint32_t ordinal = intern(id);
  engine_.schedule_after(
      comm_latency(), [this, ordinal, payload, from_harvester, from_machine] {
        Seed* seed = resident_[ordinal];
        if (!seed) return;  // undeployed while in flight
        chassis_.cpu().submit(
            seed->cpu_task(), sim::cost::kPollWakeupCpu,
            [this, ordinal, payload, from_harvester, from_machine] {
              if (Seed* s = resident_[ordinal]) {
                FARM_PROF_SCOPE("runtime/seed_handler");
                s->on_message(payload, from_harvester, from_machine);
              }
            });
      });
}

// --- Trigger registration ---------------------------------------------------

void Soil::clear_registrations(Seed& seed, bool drop_orphaned_poll_rules) {
  // Flow-level poll subjects this seed was reading; candidates for
  // auto-installed count-rule cleanup below.
  std::vector<net::Filter> flow_subjects;
  for (auto& reg : regs_) {
    if (reg->seed != &seed) continue;
    engine_.cancel(reg->timer);
    if (reg->sampler) {
      chassis_.remove_sampler(reg->sampler);
      reg->sampler = 0;
    }
    if (reg->type == almanac::TriggerType::kPoll &&
        reg->what.iface_footprint() == 0)
      flow_subjects.push_back(reg->what);
  }
  std::erase_if(regs_, [&](const auto& reg) { return reg->seed == &seed; });
  // Remove "soil-poll" count rules nobody polls anymore — undeploy churn
  // must not leak monitoring TCAM entries. Seed-installed rules (different
  // note) are reaction state and stay. State transitions keep the rules:
  // a seed re-entering a polling state expects its counts to have kept
  // accumulating (e.g. the hierarchical-HH drill loop).
  if (!drop_orphaned_poll_rules) return;
  for (const net::Filter& what : flow_subjects) {
    const std::string key = what.canonical_key();
    bool still_used = false;
    for (const auto& reg : regs_)
      if (reg->type == almanac::TriggerType::kPoll && reg->subject_key == key)
        still_used = true;
    if (still_used) continue;
    const asic::TcamRule* rule =
        chassis_.tcam().find(what, asic::TcamRegion::kMonitoring);
    if (rule && rule->note == "soil-poll")
      chassis_.tcam().remove_rules(what, asic::TcamRegion::kMonitoring);
  }
  publish_tcam_occupancy();
}

void Soil::refresh_triggers(Seed& seed) {
  clear_registrations(seed, /*drop_orphaned_poll_rules=*/false);
  for (const auto& trig : seed.active_triggers()) register_trigger(seed, trig);

  // Rebuild aggregated poll groups: group period = min member interval.
  std::unordered_map<std::string, double> wanted;
  for (const auto& reg : regs_) {
    if (reg->type != almanac::TriggerType::kPoll || !config_.aggregate_polls)
      continue;
    auto [it, inserted] = wanted.try_emplace(reg->subject_key,
                                             reg->ival_seconds);
    if (!inserted) it->second = std::min(it->second, reg->ival_seconds);
  }
  for (auto it = groups_.begin(); it != groups_.end();) {
    if (!wanted.count(it->first)) {
      it = groups_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [key, period] : wanted) {
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      PollGroup g;
      g.period_seconds = period;
      g.task = std::make_unique<sim::PeriodicTask>(
          engine_, sim::Duration::from_seconds(period),
          [this, key = key] { fire_poll_group(key); });
      g.task->start();
      groups_.emplace(key, std::move(g));
    } else if (it->second.period_seconds != period) {
      it->second.period_seconds = period;
      it->second.task->set_period(sim::Duration::from_seconds(period));
    }
  }
}

void Soil::register_trigger(Seed& seed, const Seed::ActiveTrigger& trig) {
  auto reg = std::make_unique<Registration>();
  reg->seed = &seed;
  reg->var = trig.var;
  reg->type = trig.type;
  reg->ival_seconds = trig.spec.ival_seconds;
  reg->what = trig.spec.what;
  reg->subject_key = trig.spec.what.canonical_key();
  reg->next_due =
      engine_.now() + sim::Duration::from_seconds(trig.spec.ival_seconds);
  Registration* raw = reg.get();
  regs_.push_back(std::move(reg));

  switch (trig.type) {
    case almanac::TriggerType::kTime:
      schedule_poll(*raw);  // shares the self-re-arming timer plumbing
      break;
    case almanac::TriggerType::kPoll:
      if (!config_.aggregate_polls) schedule_poll(*raw);
      // Aggregated polls are driven by their group task (refresh_triggers).
      break;
    case almanac::TriggerType::kProbe: {
      raw->sampler = chassis_.add_sampler(
          1.0, raw->what,
          [this, raw](const net::PacketHeader& h, std::uint64_t) {
            // Reservoir-sample within the gating interval so the delivered
            // packet is uniform over matching arrivals, not merely the
            // first flow the traffic driver happened to tick.
            ++raw->reservoir_seen;
            if (rng_.next_below(raw->reservoir_seen) == 0) raw->reservoir = h;
            if (engine_.now() < raw->next_due) return;  // rate lower bound
            raw->next_due = engine_.now() +
                            sim::Duration::from_seconds(raw->ival_seconds);
            net::PacketHeader sample = raw->reservoir;
            raw->reservoir_seen = 0;
            // The sample crosses the PCIe bus before the seed sees it.
            const std::uint32_t ordinal = raw->seed->ordinal_;
            std::string var = raw->var;
            chassis_.pcie().request(1, [this, ordinal, var, sample] {
              engine_.schedule_after(
                  comm_latency(), [this, ordinal, var, sample] {
                    if (Seed* s = resident_[ordinal])
                      chassis_.cpu().submit(
                          s->cpu_task(), sim::cost::kPollWakeupCpu,
                          [this, ordinal, var, sample] {
                            if (Seed* s2 = resident_[ordinal]) {
                              FARM_PROF_SCOPE("runtime/seed_handler");
                              s2->on_probe(var, sample);
                            }
                          });
                  });
            });
          });
      break;
    }
  }
}

// Arms a per-registration timer used by time triggers and unaggregated
// polls. Fires at next_due, performs the action, then re-arms.
void Soil::schedule_poll(Registration& reg) {
  Registration* raw = &reg;
  sim::Duration delay = raw->next_due - engine_.now();
  if (!delay.is_positive()) delay = sim::Duration::ns(1);
  raw->timer = engine_.schedule_after(delay, [this, raw] {
    // The registration is alive: clear_registrations cancels this event
    // before destroying it.
    sim::TimePoint due = raw->next_due;
    raw->next_due = due + sim::Duration::from_seconds(raw->ival_seconds);
    const std::uint32_t ordinal = raw->seed->ordinal_;
    if (raw->type == almanac::TriggerType::kTime) {
      std::string var = raw->var;
      engine_.schedule_after(comm_latency(), [this, ordinal, var, due] {
        if (Seed* s = resident_[ordinal])
          chassis_.cpu().submit(s->cpu_task(), sim::cost::kPollWakeupCpu,
                                [this, ordinal, var, due] {
                                  if (Seed* s2 = resident_[ordinal]) {
                                    FARM_PROF_SCOPE("runtime/seed_handler");
                                    note_wakeup(due);
                                    s2->on_time(var);
                                  }
                                });
      });
    } else {
      // Unaggregated poll: a dedicated PCIe request for this seed alone.
      tel_->add(m_poll_requests_);
      int entries = raw->what.poll_entries(chassis_.n_ifaces());
      net::Filter what = raw->what;
      std::string var = raw->var;
      pcie_poll_request(
          entries,
          [this, what, ordinal, var, due] {
            StatsValue stats;
            *stats.entries = resolve_subject(what);
            // Per-request soil bookkeeping happens even without aggregation.
            chassis_.cpu().submit(kSoilTask, sim::cost::kAggregatePerSeedCpu);
            deliver_poll_to(ordinal, var, stats, due);
          },
          kMaxPollRetries, tel_->begin_span(track_, "poll"));
    }
    schedule_poll(*raw);
  });
}

void Soil::pcie_poll_request(int entries, std::function<void()> on_complete,
                             int retries_left, telemetry::SpanId span) {
  // `done` disambiguates completion vs timeout: whichever fires first wins;
  // a completion arriving after its timeout is treated as lost (the retry
  // already owns this round).
  auto done = std::make_shared<bool>(false);
  auto timeout_ev = std::make_shared<sim::EventId>(sim::kInvalidEvent);
  chassis_.pcie().request(
      entries, [this, done, timeout_ev, on_complete, span] {
        if (*done) return;
        *done = true;
        engine_.cancel(*timeout_ev);
        tel_->end_span(track_, span);
        on_complete();
      });
  // The deadline adapts to congestion: twice the channel's current backlog
  // (which includes this request) plus fixed slack.
  sim::Duration wait = chassis_.pcie().backlog() * 2 + sim::Duration::ms(1);
  *timeout_ev = engine_.schedule_after(
      wait, [this, done, entries, on_complete, retries_left, span] {
        if (*done) return;
        *done = true;
        tel_->add(m_poll_timeouts_);
        if (retries_left > 0) {
          tel_->add(m_poll_retries_);
          pcie_poll_request(entries, on_complete, retries_left - 1, span);
        } else {
          tel_->add(m_polls_abandoned_);
          tel_->end_span(track_, span);
        }
      });
}

void Soil::fire_poll_group(const std::string& subject_key) {
  // Members of this group.
  std::vector<Registration*> members;
  net::Filter what;
  for (auto& reg : regs_)
    if (reg->type == almanac::TriggerType::kPoll &&
        reg->subject_key == subject_key) {
      members.push_back(reg.get());
      what = reg->what;
    }
  if (members.empty()) return;

  // Which members are due by now (group fires at min period)?
  // (resident ordinal, trigger variable) per due member.
  std::vector<std::pair<std::uint32_t, std::string>> due_targets;
  std::vector<sim::TimePoint> due_times;
  sim::TimePoint now = engine_.now();
  for (Registration* m : members) {
    if (m->next_due > now) continue;
    due_targets.emplace_back(m->seed->ordinal_, m->var);
    due_times.push_back(m->next_due);
    // Catch up without bursting.
    m->next_due =
        std::max(m->next_due + sim::Duration::from_seconds(m->ival_seconds),
                 now);
  }
  if (due_targets.empty()) return;

  // One PCIe transfer serves the whole group — the aggregation benefit.
  tel_->add(m_poll_requests_);
  int entries = what.poll_entries(chassis_.n_ifaces());
  bool as_threads = config_.seeds_as_threads;
  pcie_poll_request(
      entries,
      [this, what, due_targets, due_times, as_threads] {
        StatsValue stats;
        *stats.entries = resolve_subject(what);
        // Soil-side aggregation cost: per served seed, plus an extra
        // fan-out copy for process-seeds (Fig. 9).
        sim::Duration agg_cpu =
            sim::cost::kAggregatePerSeedCpu *
            static_cast<std::int64_t>(due_targets.size());
        if (!as_threads)
          agg_cpu += sim::cost::kProcessFanoutCpu *
                     static_cast<std::int64_t>(due_targets.size());
        chassis_.cpu().submit(kSoilTask, agg_cpu);
        for (std::size_t i = 0; i < due_targets.size(); ++i)
          deliver_poll_to(due_targets[i].first, due_targets[i].second, stats,
                          due_times[i]);
      },
      kMaxPollRetries, tel_->begin_span(track_, "poll_group"));
}

void Soil::deliver_poll_to(std::uint32_t ordinal, const std::string& var,
                           const StatsValue& stats, sim::TimePoint due) {
  sim::TimePoint available = engine_.now();
  std::size_t n_entries = stats.entries->size();
  engine_.schedule_after(
      comm_latency(), [this, ordinal, var, stats, due, available, n_entries] {
        Seed* seed = resident_[ordinal];
        if (!seed) return;
        // Communication latency is measured here — at IPC arrival, before
        // the handler queues for CPU (what Fig. 10 plots); handler-side
        // queueing shows up in poll lateness instead.
        delivery_latency_sum_ += (engine_.now() - available).seconds();
        ++delivery_latency_count_;
        sim::Duration handler_cpu =
            sim::cost::kPollWakeupCpu +
            sim::cost::kPollEntryCpu * static_cast<std::int64_t>(n_entries);
        chassis_.cpu().submit(
            seed->cpu_task(), handler_cpu,
            [this, ordinal, var, stats, due] {
              Seed* s = resident_[ordinal];
              if (!s) return;
              FARM_PROF_SCOPE("runtime/seed_handler");
              tel_->add(m_poll_deliveries_);
              note_wakeup(due);
              tel_->observe(m_poll_lateness_ms_, (engine_.now() - due).millis());
              s->on_poll(var, stats);
            });
      });
}

std::vector<almanac::StatEntry> Soil::resolve_subject(
    const net::Filter& what) {
  std::vector<almanac::StatEntry> out;
  int fp = what.iface_footprint();
  if (fp == net::Filter::kAllIfaces) {
    for (int i = 0; i < chassis_.n_ifaces(); ++i) {
      const auto& p = chassis_.port_stats(i);
      out.push_back({"port:" + std::to_string(i), i, asic::kInvalidRule,
                     p.tx_packets, p.tx_bytes});
    }
    return out;
  }
  if (fp > 0) {
    for (std::int32_t i : what.iface_atoms()) {
      if (i < 0 || i >= chassis_.n_ifaces()) continue;
      const auto& p = chassis_.port_stats(i);
      out.push_back({"port:" + std::to_string(i), i, asic::kInvalidRule,
                     p.tx_packets, p.tx_bytes});
    }
    return out;
  }
  // Flow-level subject: read (or install) a monitoring count rule.
  const asic::TcamRule* rule =
      chassis_.tcam().find(what, asic::TcamRegion::kMonitoring);
  if (!rule) {
    asic::TcamRule r;
    r.pattern = what;
    r.action = asic::RuleAction::kCount;
    r.note = "soil-poll";
    auto id = chassis_.tcam().add_rule(r);
    if (!id) return out;  // monitoring region full
    rule = chassis_.tcam().find(*id);
    publish_tcam_occupancy();
  }
  out.push_back({what.canonical_key(), -1, rule->id, rule->hit_packets,
                 rule->hit_bytes});
  return out;
}

void Soil::note_wakeup(sim::TimePoint due) {
  // A wakeup is accurate when its lateness stays within 10 ms — one
  // polling interval of the paper's coarse setting. Under CPU saturation
  // the handler queue grows and the accurate share collapses (Fig. 6).
  ++wakeups_;
  if ((engine_.now() - due).seconds() < 0.010) ++timely_wakeups_;
}

double Soil::polling_accuracy() const {
  if (wakeups_ == 0) return 1.0;
  return static_cast<double>(timely_wakeups_) /
         static_cast<double>(wakeups_);
}

double Soil::mean_delivery_latency() const {
  if (delivery_latency_count_ == 0) return 0;
  return delivery_latency_sum_ /
         static_cast<double>(delivery_latency_count_);
}

}  // namespace farm::runtime
