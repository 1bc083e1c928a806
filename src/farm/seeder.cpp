#include "farm/seeder.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "almanac/analysis.h"
#include "placement/heuristic.h"
#include "runtime/wire.h"
#include "sim/cost_model.h"
#include "telemetry/prof.h"
#include "util/log.h"

namespace farm::core {

namespace {
// Silent heartbeat periods before a switch is declared dead.
constexpr int kHeartbeatMissLimit = 3;
}  // namespace

// The keys are the planned seeds' own ids, which live in tasks_ and no
// pass changes: realize destroys the Seeds it undeploys, so a key inside a
// Seed would dangle. A planned seed that runs nowhere maps to nulls.
struct Seeder::SeedIndex {
  struct Where {
    Soil* soil = nullptr;
    Seed* seed = nullptr;
  };
  std::unordered_map<std::reference_wrapper<const SeedId>, Where,
                     runtime::SeedIdHash, std::equal_to<SeedId>>
      at;

  // `id` must be a planned seed's.
  const Where& operator[](const SeedId& id) const {
    auto it = at.find(std::cref(id));
    FARM_DCHECK(it != at.end());
    return it->second;
  }
};

Seeder::Seeder(sim::Engine& engine, const net::SdnController& controller,
               MessageBus& bus, std::vector<Soil*> soils,
               SeederOptions options)
    : engine_(engine),
      controller_(controller),
      bus_(bus),
      soils_(std::move(soils)),
      options_(options) {
  for (Soil* soil : soils_) {
    const asic::SwitchConfig& sc = soil->chassis().config();
    max_ifaces_ = std::max(max_ifaces_, sc.n_ifaces);
    min_monitoring_tcam_ =
        std::min(min_monitoring_tcam_.value_or(sc.tcam_monitoring_reserved),
                 sc.tcam_monitoring_reserved);
  }
  tel_ = &engine_.telemetry();
  track_ = tel_->track("seeder");
  m_heartbeats_ = tel_->counter("seeder.heartbeats");
  m_failures_ = tel_->counter("seeder.failures_detected");
  m_recoveries_ = tel_->counter("seeder.recoveries");
  m_reseeds_ = tel_->counter("seeder.reseeds");
  m_deployments_ = tel_->counter("seeder.deployments");
  m_migrations_ = tel_->counter("seeder.migrations");
  m_reoptimizes_ = tel_->counter("seeder.reoptimizes");
  m_miss_ = tel_->counter("seeder.heartbeat_miss");
  m_transient_ = tel_->counter("seeder.transients");
  m_downtime_gauge_ = tel_->gauge("seeder.last_downtime_ms");
  m_downtime_hist_ = tel_->histogram("seeder.reseed_downtime_ms");
  m_transfer_hist_ = tel_->histogram("seeder.migration_transfer_ms");
  m_lint_rejected_ = tel_->counter("seed.lint.rejected");
  for (Soil* soil : soils_) {
    bus_.attach_soil(*soil);
    health_[soil->node()] = NodeHealth{engine_.now(), false};
  }
  if (options_.heartbeat_period.is_positive() && !soils_.empty()) {
    heartbeat_task_ = std::make_unique<sim::PeriodicTask>(
        engine_, options_.heartbeat_period, [this] { heartbeat_tick(); });
    heartbeat_task_->start();
  }
}

void Seeder::heartbeat_tick() {
  const sim::Duration limit =
      options_.heartbeat_period * std::int64_t{kHeartbeatMissLimit};
  const sim::TimePoint now = engine_.now();
  for (Soil* soil : soils_) {
    NodeHealth& h = health_[soil->node()];
    if (h.failed) continue;
    // Whole silent periods beyond the expected one: a switch that answered
    // the previous probe sits at exactly one period since last_seen, so it
    // scores 0; each further silent period bumps the streak by one until
    // the miss limit declares it dead.
    const int streak =
        std::max<int>(0, static_cast<int>(
                             (now - h.last_seen).count_ns() /
                             options_.heartbeat_period.count_ns()) -
                             1);
    if (streak > h.miss_streak) {
      h.miss_streak = streak;
      tel_->mark(m_miss_, static_cast<double>(streak));
    }
    if (now - h.last_seen > limit) on_node_failed(*soil);
  }
  // Probe everyone — failed switches included, to notice reboots.
  for (Soil* soil : soils_) {
    tel_->add(m_heartbeats_);
    net::NodeId node = soil->node();
    bus_.ping(*soil, [this, node](bool alive) {
      if (!alive) return;
      auto it = health_.find(node);
      if (it == health_.end()) return;
      NodeHealth& h = it->second;
      // A positive streak on a live answer is a transient: the switch
      // died (or went unreachable) and came back between probes, inside
      // the dead-switch window. Before the streak existed these episodes
      // left no trace at all; now they are counted and marked with the
      // streak length so flight dumps show the near-miss.
      if (!h.failed && h.miss_streak > 0) {
        // Aggregate counts the transients; the mark row carries how deep
        // into the dead-switch window the streak got.
        tel_->count(m_transient_);
        tel_->mark(m_transient_, static_cast<double>(h.miss_streak));
      }
      h.miss_streak = 0;
      h.last_seen = engine_.now();
      if (h.failed) on_node_recovered(node);
    });
  }
}

void Seeder::on_node_failed(Soil& soil) {
  NodeHealth& h = health_[soil.node()];
  h.failed = true;
  const double latency = (engine_.now() - h.last_seen).seconds();
  detection_latency_sum_ += latency;
  detection_latency_max_ = std::max(detection_latency_max_, latency);
  tel_->add(m_failures_);
  // Stop routing seed/harvester traffic through the dead switch. The soil
  // stays in soils_ so heartbeats keep probing it for a reboot.
  bus_.detach_soil(soil.node());
  // Re-place over the survivors; deployments made here replace the seeds the
  // failure displaced.
  const std::uint64_t before = deployments();
  reoptimize();
  const std::uint64_t reseeds = deployments() - before;
  tel_->add(m_reseeds_, static_cast<double>(reseeds));
  if (reseeds > 0) {
    // Monitoring downtime for the displaced seeds: dark from the last
    // heartbeat answer until the replacements deployed (now, in virtual
    // time — deploys are immediate; the PCIe/bus costs are simulated by
    // the soils). Scarecrow's reseed-downtime SLO watches the gauge.
    const double down_ms = (engine_.now() - h.last_seen).millis();
    tel_->level(m_downtime_gauge_, down_ms);
    tel_->observe(m_downtime_hist_, down_ms);
  }
}

void Seeder::on_node_recovered(net::NodeId node) {
  tel_->add(m_recoveries_);
  NodeHealth& h = health_[node];
  h.failed = false;
  h.last_seen = engine_.now();
  Soil* soil = soil_at(node);
  if (soil) bus_.attach_soil(*soil);
  reoptimize();
}

std::vector<net::NodeId> Seeder::failed_nodes() const {
  std::vector<net::NodeId> out;
  for (Soil* soil : soils_) {
    auto it = health_.find(soil->node());
    if (it != health_.end() && it->second.failed) out.push_back(soil->node());
  }
  return out;
}

bool Seeder::node_failed(net::NodeId node) const {
  auto it = health_.find(node);
  return it != health_.end() && it->second.failed;
}

double Seeder::health_grade(net::NodeId node) const {
  auto it = health_.find(node);
  if (it == health_.end()) return 1;
  if (it->second.failed) return 0;
  return 1.0 - static_cast<double>(
                   std::min(it->second.miss_streak, kHeartbeatMissLimit)) /
                   kHeartbeatMissLimit;
}

int Seeder::miss_streak(net::NodeId node) const {
  auto it = health_.find(node);
  return it == health_.end() ? 0 : it->second.miss_streak;
}

Soil* Seeder::soil_at(net::NodeId node) const {
  for (Soil* s : soils_)
    if (s->node() == node) return s;
  return nullptr;
}

Seeder::SeedIndex Seeder::locate_seeds() const {
  SeedIndex index;
  for (const auto& [name, task] : tasks_)
    for (const auto& ps : task.seeds) index.at.try_emplace(std::cref(ps.id));
  // The first soil holding an id wins.
  for (Soil* soil : soils_)
    for (Seed* seed : soil->seeds())
      if (auto it = index.at.find(std::cref(seed->id()));
          it != index.at.end() && !it->second.soil)
        it->second = {soil, seed};
  return index;
}

std::vector<Seeder::PlannedSeed> Seeder::elaborate(const TaskSpec& spec,
                                                   const Images& images) {
  std::vector<PlannedSeed> out;
  for (const auto& image : images) {
    const auto& cm = image->machine;

    almanac::Registers env = almanac::static_machine_env(cm, spec.externals);
    // The seeds bind only the task's externals this machine declares.
    std::unordered_map<std::string, Value> externals;
    for (const auto* v : cm.vars)
      if (auto it = spec.externals.find(v->name);
          v->external && it != spec.externals.end())
        externals.emplace(v->name, it->second);

    // Step 1: placement resolution.
    auto resolved = almanac::resolve_places(cm, env, controller_);
    // Step 2, the utility analysis, ran when the image compiled.
    // Step 3: polling analysis. The optimizer's polling resource is the
    // PCIe budget in Mbps, so the poll-rate polynomial 1/ival (polls/s) is
    // scaled by the per-poll transfer size: entries × 64 B × 8 bit.
    auto polls = almanac::analyze_polls(cm, env, almanac::kReferenceAlloc);

    int index = 0;
    for (const auto& rs : resolved) {
      PlannedSeed ps;
      ps.id = SeedId{spec.name, cm.name, index++};
      ps.image = image;
      ps.externals = externals;
      ps.candidates = rs.candidates;
      for (const auto& pa : polls) {
        double mbps_per_poll = pa.what.poll_entries(max_ifaces_) *
                               sim::cost::kStatEntryBytes * 8.0 / 1e6;
        ps.polls.push_back(placement::PollModel{
            pa.subjects.empty() ? "none" : pa.subjects.front(),
            pa.inv_ival.scaled(mbps_per_poll)});
      }
      out.push_back(std::move(ps));
    }
  }
  return out;
}

placement::PlacementProblem Seeder::build_problem() const {
  return build_problem(locate_seeds());
}

placement::PlacementProblem Seeder::build_problem(const SeedIndex& where) const {
  placement::PlacementProblem p;
  for (Soil* soil : soils_) {
    // Dead switches are not placement candidates until they come back.
    if (node_failed(soil->node())) continue;
    placement::SwitchModel sw;
    sw.node = soil->node();
    sw.capacity = soil->total_capacity();
    p.switches.push_back(sw);
  }
  for (const auto& [name, task] : tasks_) {
    for (const auto& ps : task.seeds) {
      // A seed whose every candidate switch is currently dead cannot exist;
      // leaving it in the problem would fail the whole task under C1. Omit
      // it instead — the task degrades to its surviving seeds, and the next
      // reoptimize after a recovery brings the seed back.
      bool any_alive = std::any_of(
          ps.candidates.begin(), ps.candidates.end(),
          [this](net::NodeId n) { return !node_failed(n); });
      if (!any_alive && !ps.candidates.empty()) continue;
      placement::SeedModel sm;
      sm.id = ps.id.to_string();
      sm.task = name;
      sm.candidates = ps.candidates;
      sm.polls = ps.polls;
      // Live seeds contribute their *current* state's utility; fresh ones
      // the initial state's.
      const SeedIndex::Where& at = where[ps.id];
      const almanac::CompiledMachine& cm = ps.image->machine;
      const almanac::UtilityAnalysis* ua =
          cm.state(at.seed ? at.seed->current_state() : cm.initial_state)
              ->utility_analysis();
      // The Sickle gate rejects a task whose util does not analyze.
      FARM_CHECK_MSG(ua != nullptr, "installed seed's util did not analyze");
      sm.variants = ua->variants;
      if (at.soil) {
        p.current_placement[sm.id] = at.soil->node();
        p.current_alloc[sm.id] = at.soil->allocation(*at.seed);
      }
      p.seeds.push_back(std::move(sm));
    }
  }
  return p;
}

void Seeder::realize(const placement::PlacementResult& result,
                     const SeedIndex& where) {
  // Index entries by seed id string.
  std::unordered_map<std::string, const placement::PlacementEntry*> by_id;
  for (const auto& e : result.placements) by_id[e.seed] = &e;

  // Each planned seed is visited once, and only its own visit moves it, so
  // `where` stays right for the seeds still to come.
  for (auto& [name, task] : tasks_) {
    for (auto& ps : task.seeds) {
      const std::string key = ps.id.to_string();
      const auto [current, running] = where[ps.id];
      auto it = by_id.find(key);
      if (it == by_id.end()) {
        // Unplaced: remove if running.
        if (current) current->undeploy(ps.id);
        continue;
      }
      // A seed in transfer runs at its source until the transfer lands and
      // the landing re-solves; scheduling its move again would ship it twice.
      if (in_transfer_.count(key)) continue;
      const placement::PlacementEntry& e = *it->second;
      Soil* target = soil_at(e.node);
      FARM_CHECK_MSG(target != nullptr, "placement chose unmanaged switch");
      if (!current) {
        target->deploy(ps.id, ps.image, ps.externals, e.alloc);
        tel_->add(m_deployments_);
        continue;
      }
      if (current == target) {
        // Skip byte-identical re-allocations: set_allocation fires the
        // seed's realloc handler, which the simulation observes, so a grant
        // that changes nothing must not reach the soil.
        if (!(target->allocation(*running) == e.alloc))
          target->set_allocation(ps.id, e.alloc);
        continue;
      }
      // Live migration: ship the description + state to the target; the
      // source keeps running until the transfer completes, then execution
      // resumes at the target (§V-B). Resources are doubled meanwhile —
      // the placement already budgeted for that.
      Soil* source = current;
      runtime::SeedSnapshot snap = running->snapshot();
      sim::Duration transfer =
          sim::cost::kControlPathLatency +
          sim::Duration::from_seconds(
              static_cast<double>(snap.wire_bytes()) * 8.0 /
              sim::cost::kControlLinkBandwidthBps);
      tel_->add(m_migrations_);
      tel_->observe(m_transfer_hist_, transfer.millis());
      in_transfer_.insert(key);
      SeedId id = ps.id;
      auto image = ps.image;
      auto externals = ps.externals;
      auto alloc = e.alloc;
      engine_.schedule_after(transfer, [this, key, id, image, externals, alloc,
                                        source, target] {
        // remove_task cancelled the transfer along with its seeds.
        if (!in_transfer_.erase(key)) return;
        // The source seed's latest state travels; re-snapshot at
        // completion time for fidelity.
        Seed* still = source->find(id);
        if (!still) return;  // undeployed meanwhile
        // The target died mid-transfer: keep the seed at the source and
        // let the next reoptimize find it a new home.
        if (!target->online()) return;
        runtime::SeedSnapshot latest = still->snapshot();
        source->undeploy(id);
        target->deploy(id, image, externals, alloc, &latest);
        // The seed's residue at the source is released: the placement's
        // input changed, so re-solve.
        reoptimize();
      });
    }
  }
}

void Seeder::reoptimize() {
  // Soils and seeds reach the seeder only through scheduled events, so a
  // pass never starts inside another: re-entry would realize a placement
  // solved against a fabric the outer pass is still changing.
  FARM_CHECK_MSG(!reoptimizing_, "reoptimize re-entered");
  reoptimizing_ = true;
  tel_->add(m_reoptimizes_);
  // The solve itself is host computation (zero virtual time); the span marks
  // *when* placement ran so traces correlate it with the triggering fault.
  telemetry::ScopedSpan span(*tel_, track_, "reoptimize");
  FARM_PROF_SCOPE("reoptimize");
  const SeedIndex where = locate_seeds();
  last_ = placement::solve_heuristic(build_problem(where), {.memo = &memo_});
  realize(last_, where);
  reoptimizing_ = false;
}

std::optional<Seeder::Images> Seeder::lint_intake(const TaskSpec& spec) {
  FARM_PROF_SCOPE("lint");
  last_lint_.clear();

  // Score resource estimates against the *tightest* deployed switch.
  almanac::verify::VerifyOptions vopts;
  vopts.controller = &controller_;
  vopts.externals = spec.externals;
  vopts.pcie_budget_mbps = sim::cost::kPciePollBandwidthBps / 1e6;
  if (min_monitoring_tcam_)
    vopts.tcam_monitoring_capacity = *min_monitoring_tcam_;
  vopts.max_ifaces = std::max(vopts.max_ifaces, max_ifaces_);

  std::shared_ptr<const almanac::Program> program;
  try {
    program = std::make_shared<const almanac::Program>(
        almanac::parse_program(spec.source));
  } catch (const std::exception& e) {
    // Reported as a single diagnostic so the rejection path is uniform.
    last_lint_.push_back(almanac::verify::Diagnostic{
        "PARSE", almanac::verify::Severity::kError, {}, e.what(), {}});
    tel_->add(m_lint_rejected_);
    FARM_LOG(kWarn) << "seeder: task '" << spec.name
                   << "' rejected by Sickle: parse error: " << e.what();
    return std::nullopt;
  }
  std::vector<almanac::CompiledMachine> machines;
  last_lint_ = almanac::verify::verify_program(*program, spec.machines, vopts,
                                               &machines);
  if (almanac::verify::count_errors(last_lint_) == 0) {
    // No error means every requested machine compiled; each seed image
    // holds the verified machine rather than compiling it again.
    Images images;
    for (auto& cm : machines)
      images.push_back(std::make_shared<runtime::MachineImage>(
          runtime::MachineImage{program, std::move(cm)}));
    return images;
  }
  tel_->add(m_lint_rejected_);
  FARM_LOG(kWarn) << "seeder: task '" << spec.name << "' rejected by Sickle: "
                 << almanac::verify::count_errors(last_lint_)
                 << " error(s), first: " << last_lint_.front().code << " "
                 << last_lint_.front().message;
  return std::nullopt;
}

std::vector<SeedId> Seeder::install_task(const TaskSpec& spec) {
  FARM_PROF_SCOPE("seeder/intake");
  FARM_PROF_COUNT("seeder.intake.tasks", 1);
  FARM_CHECK_MSG(!tasks_.count(spec.name), "task already installed");
  // Step 0 (Sickle): reject ill-formed seeds before any elaboration or
  // placement work happens — a rejected task installs nothing.
  auto images = lint_intake(spec);
  if (!images) return {};
  InstalledTask task;
  task.spec = spec;
  task.seeds = elaborate(spec, *images);
  tasks_.emplace(spec.name, std::move(task));
  reoptimize();
  return seeds_of_task(spec.name);
}

void Seeder::remove_task(const std::string& name) {
  FARM_PROF_SCOPE("seeder/remove");
  auto it = tasks_.find(name);
  if (it == tasks_.end()) return;
  const SeedIndex where = locate_seeds();
  for (const auto& ps : it->second.seeds) {
    if (Soil* soil = where[ps.id].soil) soil->undeploy(ps.id);
    in_transfer_.erase(ps.id.to_string());
  }
  tasks_.erase(it);
  reoptimize();
}

std::vector<SeedId> Seeder::seeds_of_task(const std::string& name) const {
  std::vector<SeedId> out;
  auto it = tasks_.find(name);
  if (it == tasks_.end()) return out;
  const SeedIndex where = locate_seeds();
  for (const auto& ps : it->second.seeds)
    if (where[ps.id].soil) out.push_back(ps.id);
  return out;
}

}  // namespace farm::core
