// FARM end-to-end benchmark driver (README.md).
//
//   farm_bench --workload fleet_steady|task_churn|fleet_failover
//              --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Drives FARM only through its public API from one single-threaded process
// and prints one JSON result line. Every timing metric is scaled by a host
// reference kernel (host_ref.h) run in slices between the timed calls.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_stats.h"
#include "farm/chaos.h"
#include "farm/system.h"
#include "farm/usecases.h"
#include "host_ref.h"
#include "net/traffic.h"
#include "placement/model.h"
#include "telemetry/export.h"
#include "telemetry/prof.h"
#include "util/pool.h"

namespace farmbench {
namespace {

using farm::sim::Duration;
using farm::sim::TimePoint;
namespace core = farm::core;
namespace prof = farm::telemetry::prof;

// Reference lookups per second of the nominal host every timing metric is
// reported at (the mean rate measured on a 4-thread x86-64 server).
constexpr double kNominalRefRate = 20e6;
// Wall time between reference slices: about 1 ms of reference per 15 ms of
// timed work.
constexpr std::uint64_t kRefEveryNs = 15'000'000;
// Setups per run; setup_s is their median.
constexpr int kSetups = 3;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::origin() + Duration::ms(ms);
}

// --- Spans (traced run only) -------------------------------------------------

struct Span {
  const char* name;
  std::string label;  // task kind or switch for ops
  std::uint64_t start_ns = 0, end_ns = 0;
  int parent = -1;
  std::int64_t op = -1;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), t0_(now_ns()) {}
  bool on() const { return on_; }
  int open(const char* name, std::string label = {}, std::int64_t op = -1) {
    if (!on_) return -1;
    spans_.push_back({name, std::move(label), now_ns() - t0_, 0,
                      stack_.empty() ? -1 : stack_.back(), op});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  // A closed span whose times were taken by the caller.
  void add(const char* name, std::string label, std::uint64_t start_ns,
           std::uint64_t end_ns, std::int64_t op) {
    if (!on_) return;
    spans_.push_back({name, std::move(label), start_ns - t0_, end_ns - t0_,
                      stack_.empty() ? -1 : stack_.back(), op});
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns() - t0_;
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::uint64_t t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::string label = {},
            std::int64_t op = -1)
      : log_(log), idx_(log.open(name, std::move(label), op)) {}
  ~SpanScope() { log_.close(idx_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  int idx_;
};

// --- Timed samples, grouped in cycles that carry their reference slices -----

// A run of cycles (setup repetitions, mix cycles, plan cycles, slice chunks).
// Every reference slice is charged to the open cycle, and every sample of
// that cycle is scaled by the cycle's reference rate.
struct Phase {
  std::vector<RefMeter> cycles;
  void begin_cycle() { cycles.emplace_back(); }
  int current() const { return static_cast<int>(cycles.size()) - 1; }
  double rate(int c) const { return cycles[static_cast<std::size_t>(c)].rate(); }
  RefMeter total() const {
    RefMeter t;
    for (const auto& c : cycles) t.merge(c);
    return t;
  }
};

struct Series {
  const Phase* phase = nullptr;
  std::vector<double> raw;  // one per timed call
  std::vector<int> cycle;

  void add(double v) {
    raw.push_back(v);
    cycle.push_back(phase->current());
  }
  std::size_t size() const { return raw.size(); }
  double value(std::size_t i, bool scaled) const {
    return scaled ? scale_time(raw[i], phase->rate(cycle[i]), kNominalRefRate)
                  : raw[i];
  }
  std::vector<std::vector<double>> by_cycle(bool scaled) const {
    std::vector<std::vector<double>> out(phase->cycles.size());
    for (std::size_t i = 0; i < raw.size(); ++i)
      out[static_cast<std::size_t>(cycle[i])].push_back(value(i, scaled));
    return out;
  }
  double cycle_median(bool scaled) const {
    return median_of_cycle_means(by_cycle(scaled));
  }
  std::optional<double> percentile(double p, bool scaled) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < raw.size(); ++i) v.push_back(value(i, scaled));
    return percentile_with_tail(std::move(v), p);
  }
  double sum(bool scaled) const {
    double s = 0;
    for (std::size_t i = 0; i < raw.size(); ++i) s += value(i, scaled);
    return s;
  }
};

// --- The benchmark context ----------------------------------------------------

class Bench {
 public:
  explicit Bench(bool trace) : spans(trace) {}

  SpanLog spans;
  std::uint64_t ops = 0;
  std::vector<std::string> failures;  // failed output checks

  void charge_to(Phase& phase) { phase_ = &phase; }

  // Runs a reference slice when the timed work since the last one reached
  // kRefEveryNs, charging it to the open cycle.
  void maybe_ref() {
    if (now_ns() - last_ref_end_ < kRefEveryNs) return;
    ref_slice();
  }
  void ref_slice() {
    SpanScope s(spans, "host.ref");
    phase_->cycles.back().add(ref_.slice_ns());
    last_ref_end_ = now_ns();
  }
  std::uint64_t ref_checksum() const { return ref_.checksum(); }

  // Times one public call in milliseconds under a span.
  template <class F>
  double timed_ms(const char* name, const std::string& label, F&& f) {
    SpanScope s(spans, name, label, static_cast<std::int64_t>(ops));
    ++ops;
    const std::uint64_t t0 = now_ns();
    f();
    return static_cast<double>(now_ns() - t0) / 1e6;
  }

  // Records a span for a call timed by the caller: only the outcome of an
  // Engine::step says whether it carried a verdict.
  void span_after(const char* name, const std::string& label,
                  std::uint64_t t0, std::uint64_t t1) {
    spans.add(name, label, t0, t1, static_cast<std::int64_t>(ops));
  }

  void fail(std::string what) {
    if (failures.size() < 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
    failures.push_back(std::move(what));
  }

  // Per-op records for the trace file: kind, label, duration.
  struct OpRecord {
    const char* kind;
    std::string label;
    double ms;
  };
  std::vector<OpRecord> op_records;
  void record(const char* kind, const std::string& label, double ms) {
    if (spans.on()) op_records.push_back({kind, label, ms});
  }

 private:
  HostRef ref_;
  Phase* phase_ = nullptr;
  std::uint64_t last_ref_end_ = 0;
};

// --- Generated tasks ----------------------------------------------------------

// A per-flow monitor pinned to one leaf, polling one flow subject at 10 ms.
constexpr const char* kFlowMonitor = R"ALM(
machine FlowMon {
  place any leaf;
  external long leaf = 0;
  external string src = "10.0.0.1";
  external string dst = "10.0.1.1";
  poll flowStats = Poll { .ival = 0.01, .what = srcIP src and dstIP dst };
  long last = 0;
  state watch {
    util (res) { if (res.vCPU >= 0.01) then { return res.vCPU; } }
    when (flowStats as s) do {
      long total = 0;
      long i = 0;
      while (i < stats_size(s)) { total = total + stats_bytes(s, i); i = i + 1; }
      if (total - last > 2000000) then { send total to harvester; }
      last = total;
    }
  }
}
)ALM";

// A task whose single seed may run on any of three switches, with two
// utility variants: the placement heuristic has a real choice to make.
constexpr const char* kMultiCandidate = R"ALM(
machine Multi {
  place any c0, c1, c2;
  external long c0 = 0;
  external long c1 = 0;
  external long c2 = 0;
  external string watched = "10.0.0.0/16";
  external long every = 20;
  poll prefixStats = Poll { .ival = 0.05, .what = dstIP watched };
  long n = 0;
  state count {
    util (res) {
      if (res.vCPU >= 0.3 and res.RAM >= 32) then {
        return 2 * min(res.vCPU, res.PCIe);
      }
      if (res.vCPU >= 0.05) then { return res.vCPU; }
    }
    when (prefixStats as s) do {
      n = n + 1;
      if (n >= every) then { send stats_size(s) to harvester; n = 0; }
    }
  }
}
)ALM";

struct TaskDef {
  std::string kind;  // use-case name, "flow-monitor" or "multi-candidate"
  core::TaskSpec spec;  // spec.name is a placeholder until installed
};

template <class T>
void shuffle(std::vector<T>& v, farm::util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

// Generated multi-candidate tasks: task i may run on one spine or two
// leaves, and watches a third leaf's prefix. The layout is fixed: placement
// breaks ties by node id, so a seeded layout changes how much a failure
// displaces (failover_ms moved 50% between seeds).
std::vector<TaskDef> multi_candidate_tasks(const farm::net::SpineLeaf& fabric,
                                           int n, int offset) {
  std::vector<TaskDef> out;
  const auto& spines = fabric.spine_switches;
  const auto& leaves = fabric.leaf_switches;
  const std::size_t S = spines.size(), L = leaves.size();
  for (std::size_t i = static_cast<std::size_t>(offset);
       i < static_cast<std::size_t>(offset + n); ++i) {
    auto id = [](farm::net::NodeId node) {
      return farm::almanac::Value(static_cast<std::int64_t>(node));
    };
    const auto watched = leaves[(2 * i + 5) % L];
    out.push_back(
        {"multi-candidate",
         {"", kMultiCandidate, {"Multi"},
          {{"c0", id(spines[i % S])},
           {"c1", id(leaves[(2 * i) % L])},
           {"c2", id(leaves[(2 * i + 1) % L])},
           {"watched", farm::almanac::Value(
                           fabric.topo.node(watched).owned_prefixes.front().to_string())},
           {"every", farm::almanac::Value(
                         static_cast<std::int64_t>(10 + (7 * i) % 20))}}}});
  }
  return out;
}

std::vector<TaskDef> use_case_tasks() {
  std::vector<TaskDef> out;
  auto add = [&](const core::UseCase& uc) {
    out.push_back({uc.name, {"", uc.source, uc.machines, uc.default_externals}});
    // The port-scan probe samples one TCP flow per traffic tick, so next to
    // the fleet's other flows it sees a fraction of the probed ports.
    if (uc.name == "Port scan")
      out.back().spec.externals["portThreshold"] =
          farm::almanac::Value(std::int64_t{12});
  };
  for (const auto& uc : core::all_use_cases()) add(uc);
  for (const auto& uc : core::extension_use_cases()) add(uc);
  return out;
}

// --- Workload definitions ------------------------------------------------------

enum class Kind { kSteady, kChurn, kFailover };

struct WorkloadSpec {
  Kind kind;
  const char* name;
  int flow_monitors;    // per-flow monitors, spread over hot_leaves
  int hot_leaves;
  int multi_tasks;      // base multi-candidate tasks
  int hh_flows;         // heavy hitters, re-drawn every kHhEpoch
  int background_flows;
  double monitored_flow_bps;
};

const WorkloadSpec kWorkloads[] = {
    {Kind::kSteady, "fleet_steady", 48, 3, 16, 48, 96, 40e6},
    {Kind::kChurn, "task_churn", 48, 3, 16, 48, 96, 40e6},
    {Kind::kFailover, "fleet_failover", 12, 1, 48, 16, 32, 10e6},
};

// Virtual-time shape shared by every workload.
constexpr Duration kWarmup = Duration::ms(400);
constexpr Duration kHeartbeat = Duration::ms(10);
constexpr Duration kHhEpoch = Duration::sec(2);
constexpr Duration kSlice = Duration::ms(2);        // fleet_steady run_for slice
constexpr int kSlicesPerChunk = 100;                // fleet_steady cycle
constexpr Duration kChurnGap = Duration::ms(2);     // after each churn op
constexpr int kChurnLive = 6;                       // sliding window of churned tasks
constexpr int kChurnMultiTasks = 22;                // generated tasks in the churn pool
constexpr Duration kIncident = Duration::ms(100);   // one crash + reboot
constexpr Duration kDowntime = Duration::ms(60);
constexpr int kMinVerdictSteps = 102;               // p90 needs 100

// --- One FARM system with its fleet ------------------------------------------

class DigestHarvester : public farm::runtime::Harvester {
 public:
  DigestHarvester(farm::sim::Engine& engine, std::string task, Digest& digest)
      : Harvester(engine, std::move(task)), digest_(digest) {}
  void on_seed_message(const farm::runtime::SeedId&, farm::net::NodeId,
                       const farm::almanac::Value& payload) override {
    digest_.add(task());
    digest_.add_u64(static_cast<std::uint64_t>(engine().now().count_ns()));
    digest_.add(payload.to_string());
    ++reports_;
  }
  std::uint64_t reports() const { return reports_; }

 private:
  Digest& digest_;
  std::uint64_t reports_ = 0;
};

struct Incident {
  farm::net::NodeId node;
  const char* role;
};

class System {
 public:
  // `horizon`: virtual time the traffic must cover; 0 builds the fleet on
  // an idle fabric (no traffic, no warm-up).
  System(const WorkloadSpec& w, std::uint64_t seed, Duration horizon,
         Bench& bench);

  core::FarmSystem& farm() { return *farm_; }
  core::Seeder& seeder() { return farm_->seeder(); }
  farm::telemetry::Hub& hub() { return farm_->telemetry(); }

  // Installs one task under `name` (timed); returns the call's wall ms.
  double install(const std::string& name, const TaskDef& def);
  double remove(const std::string& name);
  void check_placement(const char* where);
  double counter(const char* name) {
    auto id = hub().registry().find(name);
    return id == farm::telemetry::kInvalidMetric ? 0 : hub().registry().value(id);
  }
  // Sum of the counters whose names match a Granary label pattern.
  double counters_matching(std::string_view pattern);
  std::uint64_t reports_of(const std::string& kind) const;
  std::uint32_t digest_with_placement();

  std::vector<double> install_ms;  // the fleet's installs, in order
  std::vector<std::string> live;   // installed task names, install order
  std::map<std::string, std::string> kind_of;
  // The switches a failover plan crashes, chosen from the current
  // placement: the spine and the leaf whose failure displaces the most
  // seeds, and the leaf displacing the fewest.
  std::vector<Incident> incidents();
  std::size_t flows = 0;
  std::vector<TaskDef> churn_pool;

 private:
  Bench& bench_;
  Digest digest_;
  std::map<std::string, std::unique_ptr<DigestHarvester>> harvesters_;
  std::unique_ptr<core::FarmSystem> farm_;  // destroyed before the harvesters
};

core::FarmSystemConfig system_config() {
  core::FarmSystemConfig config;
  config.topology = {.spines = 4, .leaves = 16, .hosts_per_leaf = 4};
  config.switch_config.cpu_cores = 8;
  config.seeder.heartbeat_period = kHeartbeat;
  // Poll staleness at the fleet's failure-detection scale, so the failover
  // plan's crashes raise alerts.
  config.scarecrow.rules = {"poll-stall: staleness(soil.*.poll_deliveries) > 0.03"};
  config.scarecrow.eval_period = Duration::ms(20);
  config.hub.silo_shards = 1;
  return config;
}

System::System(const WorkloadSpec& w, std::uint64_t seed, Duration horizon,
               Bench& bench)
    : bench_(bench) {
  {
    SpanScope s(bench.spans, "farm.construct");
    farm_ = std::make_unique<core::FarmSystem>(system_config());
  }
  const auto& fabric = farm_->fabric();
  const auto& topo = farm_->topology();
  farm::util::Rng rng(seed);
  auto addr = [&](farm::net::NodeId host) {
    return *topo.node(host).address;
  };

  // The switch-level layout is fixed; the seed shuffles the hosts of every
  // rack, which moves every flow's addresses and so its ECMP path.
  std::vector<std::vector<farm::net::NodeId>> racks = fabric.hosts_by_leaf;
  for (auto& rack : racks) shuffle(rack, rng);
  const std::size_t L = racks.size();
  auto host = [&](std::size_t leaf, std::size_t j) {
    const auto& rack = racks[leaf % L];
    return rack[j % rack.size()];
  };
  // The first leaves carry the flow monitors.
  const std::size_t n_hot = static_cast<std::size_t>(w.hot_leaves);

  // The fleet: every Table I and extension use case, per-flow monitors on
  // the hot leaves, multi-candidate tasks.
  std::vector<TaskDef> fleet = use_case_tasks();
  farm::net::FlowSchedule traffic;
  for (std::size_t i = 0; i < static_cast<std::size_t>(w.flow_monitors); ++i) {
    const std::size_t li = i % n_hot;
    const auto dst = host(i % n_hot, i / n_hot);
    const auto src = host(n_hot + i % (L - n_hot), i);
    // Distinct (src, dst) subjects: a port pair makes each flow unique.
    farm::net::FlowSpec f;
    f.key = {addr(src), addr(dst), static_cast<std::uint16_t>(20000 + i), 443,
             farm::net::Proto::kTcp};
    f.rate_bps = w.monitored_flow_bps * (0.75 + 0.5 * rng.next_double());
    f.flags = {.syn = false, .ack = true};
    traffic.add_forever(TimePoint::origin(), f);
    fleet.push_back(
        {"flow-monitor",
         {"", kFlowMonitor, {"FlowMon"},
          {{"leaf", farm::almanac::Value(static_cast<std::int64_t>(
                        fabric.leaf_switches[li]))},
           {"src", farm::almanac::Value(addr(src).to_string())},
           {"dst", farm::almanac::Value(addr(dst).to_string())}}}});
  }
  for (auto& t : multi_candidate_tasks(fabric, w.multi_tasks, 0))
    fleet.push_back(std::move(t));
  // The churn pool: the use cases again and fresh multi-candidate tasks,
  // alternating, in one order every mix cycle repeats. The seed rotates the
  // order; a shuffled order changed which tasks are live together, and the
  // mean install moved 30% between seeds.
  if (w.kind == Kind::kChurn) {
    const auto ucs = use_case_tasks();
    const auto multis =
        multi_candidate_tasks(fabric, kChurnMultiTasks, w.multi_tasks);
    for (std::size_t i = 0; i < std::max(ucs.size(), multis.size()); ++i) {
      if (i < ucs.size()) churn_pool.push_back(ucs[i]);
      if (i < multis.size()) churn_pool.push_back(multis[i]);
    }
    std::rotate(churn_pool.begin(),
                churn_pool.begin() + static_cast<std::ptrdiff_t>(
                                         rng.next_below(churn_pool.size())),
                churn_pool.end());
  }

  int n = 0;
  for (const auto& def : fleet) {
    install_ms.push_back(install("t" + std::to_string(n++), def));
    bench.maybe_ref();
  }

  if (horizon == Duration{}) return;

  // Traffic: heavy hitters from every leaf to a leaf shifted each epoch;
  // random background mice; the monitored flows; an SSH brute force and a
  // port scan early enough to be caught within the run.
  const std::size_t hh = static_cast<std::size_t>(w.hh_flows);
  for (std::int64_t e = 0; kHhEpoch * e < horizon; ++e) {
    const auto from = TimePoint::origin() + kHhEpoch * e;
    const std::size_t shift = 1 + static_cast<std::size_t>(e) % (L - 1);
    for (std::size_t k = 0; k < hh; ++k) {
      farm::net::FlowSpec f;
      f.key = {addr(host(k, k / L + static_cast<std::size_t>(e))),
               addr(host(k + shift, k + 1)),
               static_cast<std::uint16_t>(30000 + k), 80, farm::net::Proto::kTcp};
      f.rate_bps = 1.5e9;
      f.flags = {.syn = false, .ack = true};
      traffic.add(from, from + kHhEpoch, f);
    }
  }
  traffic.append(farm::net::background_traffic(topo, rng, w.background_flows,
                                               2e6, horizon));
  const auto attacker = addr(host(1, 0));
  const auto target = addr(host(L / 2, 1));
  traffic.append(farm::net::ssh_brute_force(attacker, target, 40,
                                            Duration::ms(5), at_ms(20)));
  traffic.append(farm::net::port_scan(attacker, target, 2000, 100, 1e6,
                                      at_ms(40), Duration::ms(1000)));
  flows = traffic.size();
  {
    SpanScope s(bench.spans, "farm.load_traffic");
    farm_->load_traffic(std::move(traffic));
  }
  {
    SpanScope s(bench.spans, "engine.run_for", "warmup");
    farm_->run_for(kWarmup);
  }
}

double System::install(const std::string& name, const TaskDef& def) {
  auto h = std::make_unique<DigestHarvester>(farm_->engine(), name, digest_);
  farm_->bus().attach_harvester(name, *h);
  harvesters_[name] = std::move(h);
  core::TaskSpec spec = def.spec;
  spec.name = name;
  std::vector<farm::runtime::SeedId> ids;
  const double ms = bench_.timed_ms("seeder.install_task", def.kind,
                                    [&] { ids = seeder().install_task(spec); });
  bench_.record("install", def.kind, ms);
  if (ids.empty()) bench_.fail("install of " + def.kind + " placed no seed");
  live.push_back(name);
  kind_of[name] = def.kind;
  return ms;
}

double System::remove(const std::string& name) {
  const std::string kind = kind_of[name];
  const double ms = bench_.timed_ms("seeder.remove_task", kind,
                                    [&] { seeder().remove_task(name); });
  bench_.record("remove", kind, ms);
  if (!seeder().seeds_of_task(name).empty() ||
      !farm_->bus().seeds_of(name, "").empty())
    bench_.fail("removed task " + name + " (" + kind + ") left seeds");
  farm_->bus().detach_harvester(name);
  live.erase(std::find(live.begin(), live.end(), name));
  return ms;
}

void System::check_placement(const char* where) {
  auto errors = farm::placement::validate_placement(seeder().build_problem(),
                                                    seeder().last_placement());
  if (!errors.empty())
    bench_.fail(std::string("placement invalid after ") + where + ": " +
                errors.front());
}

double System::counters_matching(std::string_view pattern) {
  const auto& reg = hub().registry();
  double s = 0;
  for (farm::telemetry::MetricId id = 0; id < reg.size(); ++id)
    if (farm::telemetry::label_matches(reg.name(id), pattern)) s += reg.value(id);
  return s;
}

std::vector<Incident> System::incidents() {
  // Load of a switch: the seeds a failure displaces to another switch (of
  // multi-candidate tasks), then all seeds, then the node id.
  auto load = [&](farm::net::NodeId n) {
    std::size_t movable = 0;
    for (const auto* seed : farm_->soil(n).seeds()) {
      auto it = kind_of.find(seed->id().task);
      movable += it != kind_of.end() && it->second == "multi-candidate";
    }
    return std::tuple(movable, farm_->soil(n).seed_count(), -static_cast<long>(n));
  };
  auto by_load = [&](auto a, auto b) { return load(a) < load(b); };
  const auto& spines = farm_->fabric().spine_switches;
  const auto& leaves = farm_->fabric().leaf_switches;
  return {{*std::max_element(spines.begin(), spines.end(), by_load), "spine"},
          {*std::max_element(leaves.begin(), leaves.end(), by_load), "busy-leaf"},
          {*std::min_element(leaves.begin(), leaves.end(), by_load), "quiet-leaf"}};
}

std::uint64_t System::reports_of(const std::string& kind) const {
  std::uint64_t n = 0;
  for (const auto& [name, h] : harvesters_) {
    auto it = kind_of.find(name);
    if (it != kind_of.end() && it->second == kind) n += h->reports();
  }
  return n;
}

std::uint32_t System::digest_with_placement() {
  Digest d = digest_;
  for (const auto& e : seeder().last_placement().placements) {
    d.add(e.seed);
    d.add_u64(static_cast<std::uint64_t>(e.node));
    d.add_u64(static_cast<std::uint64_t>(e.variant));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &e.utility, sizeof bits);
    d.add_u64(bits);
  }
  return d.value();
}

// --- Counters read around a window ---------------------------------------------

// Cumulative counters of one system, by name.
using Counters = std::map<std::string, double>;

Counters read_counters(System& s) {
  Counters c;
  for (const char* name :
       {"seeder.reoptimizes", "seeder.failures_detected", "seeder.recoveries",
        "seed.handlers", "seed.transits", "bus.up.msgs", "bus.down.msgs",
        "bus.up.bytes"})
    c[name] = s.counter(name);
  c["alerts_fired"] = s.counters_matching("alert.*.firing");
  const auto& seeder = s.seeder();
  c["deferred"] = static_cast<double>(seeder.deferred_reoptimizes());
  c["deployments"] = static_cast<double>(seeder.deployments());
  c["migrations"] = static_cast<double>(seeder.migrations_performed());
  c["reseeds"] = static_cast<double>(seeder.reseed_count());
  c["lint_rejections"] = static_cast<double>(seeder.lint_rejections());
  for (auto n : s.farm().topology().switches()) {
    auto& soil = s.farm().soil(n);
    c["poll_requests"] += static_cast<double>(soil.poll_requests_issued());
    c["poll_deliveries"] += static_cast<double>(soil.poll_deliveries());
    c["poll_timeouts"] += static_cast<double>(soil.poll_timeouts());
    c["poll_retries"] += static_cast<double>(soil.poll_retries());
    c["polls_abandoned"] += static_cast<double>(soil.polls_abandoned());
    const auto& ch = s.farm().chassis(n);
    c["pcie_requests"] += static_cast<double>(ch.pcie().requests_served());
    c["pcie_bytes"] += static_cast<double>(ch.pcie().bytes_transferred());
    c["pcie_dropped"] += static_cast<double>(ch.pcie().requests_dropped());
    c["bytes_forwarded"] += static_cast<double>(ch.asic_bytes_forwarded());
  }
  c["events"] = static_cast<double>(s.farm().engine().executed_events());
  return c;
}

Counters operator-(Counters a, const Counters& b) {
  for (auto& [name, v] : a) v -= b.at(name);
  return a;
}

// --- Furrow tree helpers --------------------------------------------------------

struct ScopeSum {
  std::uint64_t count = 0, total_ns = 0, self_ns = 0;
};

// Sums every node named `name` (under a parent segment named `parent`, when
// given) anywhere in the merged tree.
void sum_scope(const prof::ProfNode& node, const std::string& parent,
               const char* name, const char* want_parent, ScopeSum& out) {
  for (const auto& ch : node.children) {
    if (ch.name == name && (!want_parent || parent == want_parent)) {
      out.count += ch.count;
      out.total_ns += ch.total_ns;
      out.self_ns += ch.self_ns;
    }
    sum_scope(ch, ch.name, name, want_parent, out);
  }
}

ScopeSum scope(const prof::Snapshot& snap, const char* name,
               const char* parent = nullptr) {
  ScopeSum s;
  sum_scope(snap.root, "", name, parent, s);
  return s;
}

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- Results ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Results {
 public:
  void put(const std::string& name, double value, const std::string& unit) {
    if (!valid_metric_name(name) || !valid_unit(unit) || !std::isfinite(value)) {
      std::fprintf(stderr, "bad metric %s = %g %s\n", name.c_str(), value,
                   unit.c_str());
      std::exit(3);
    }
    list_.push_back({name, value, unit});
  }
  std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    for (std::size_t i = 0; i < list_.size(); ++i)
      os << (i ? ", " : "") << "\"" << list_[i].name << "\": {\"value\": "
         << list_[i].value << ", \"unit\": \"" << list_[i].unit << "\"}";
    os << "}";
    return os.str();
  }

 private:
  std::vector<Metric> list_;
};

struct HostUsage {
  double cpu_s = 0;
  double nivcsw = 0;
  double steal_s = 0;
  double max_rss_mb = 0;
};

double steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (double& x : v) in >> x;
  return v[7];
}

HostUsage host_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.nivcsw = static_cast<double>(ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  u.steal_s = steal_ticks() / static_cast<double>(sysconf(_SC_CLK_TCK));
  return u;
}

// --- The run ----------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
};

class Run {
 public:
  Run(const WorkloadSpec& w, const Args& a) : w_(w), args_(a), bench_(a.trace) {
    for (Series* s : {&setup_, &install_setup_, &remove_setup_})
      s->phase = &setup_phase_;
    for (Series* s : {&install_, &remove_, &gap_, &slice_})
      s->phase = &window_phase_;
    for (Series* s : {&verdict_, &stepping_}) s->phase = &failover_phase_;
  }
  int execute();

 private:
  // Virtual time a run can reach: warm-up, the longest window, the plan.
  Duration horizon() const { return Duration::sec(20 + 2 * args_.seconds); }
  void setups();
  void teardown(System& s);
  void steady_window(System& s);
  void churn_window(System& s);
  // Crash/reboot plan cycles over the incident switches; fills verdict_.
  void failover_cycles(System& s, int cycles, bool window);
  void end_to_end(const Series& install, const Series& remove);
  void layers(System& s, const Counters& window, const prof::Snapshot& snap,
              double window_raw_s);
  void write_trace(System& s, const prof::Snapshot& snap);

  const WorkloadSpec& w_;
  Args args_;
  Bench bench_;
  Phase setup_phase_, window_phase_, failover_phase_;
  Series setup_, install_setup_, remove_setup_;  // setup repetitions
  Series install_, remove_, gap_;                // task_churn window
  Series slice_;                                 // fleet_steady window
  Series verdict_, stepping_;                    // failover plan cycles
  Counters setup_counters_;                      // the last setup
  prof::Snapshot setup_snap_;
  double setup_installs_ = 0;
  double virtual_s_ = 0;
  std::unique_ptr<System> main_;
  Results e2e_, diag_, extra_;
};

void Run::teardown(System& s) {
  while (!s.live.empty()) {
    remove_setup_.add(s.remove(s.live.back()));
    bench_.maybe_ref();
  }
}

void Run::setups() {
  auto& profiler = prof::Profiler::instance();
  bench_.charge_to(setup_phase_);
  for (int r = 0; r < kSetups; ++r) {
    const bool last = r + 1 == kSetups;
    if (last) profiler.reset();
    setup_phase_.begin_cycle();
    bench_.ref_slice();
    // Reference slices interleave with the installs; the setup time
    // excludes them.
    const std::uint64_t ref0 = setup_phase_.cycles.back().ns;
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<System> s;
    {
      SpanScope span(bench_.spans, "setup", std::to_string(r));
      s = std::make_unique<System>(w_, args_.seed, horizon(), bench_);
    }
    const std::uint64_t ref_in = setup_phase_.cycles.back().ns - ref0;
    setup_.add(static_cast<double>(now_ns() - t0 - ref_in) / 1e9);
    for (double ms : s->install_ms) install_setup_.add(ms);
    bench_.ref_slice();
    if (last) {
      setup_counters_ = read_counters(*s);
      setup_snap_ = profiler.snapshot();
      setup_installs_ = static_cast<double>(s->install_ms.size());
      main_ = std::move(s);
    } else if (w_.kind != Kind::kChurn) {
      teardown(*s);
    }
  }
}

void Run::steady_window(System& s) {
  // A fixed virtual duration, so work counts repeat exactly; about
  // --seconds of wall time on the nominal host.
  const int chunks = std::max(4, args_.seconds * 5 / 2);
  bench_.charge_to(window_phase_);
  auto& farm = s.farm();
  for (int c = 0; c < chunks; ++c) {
    window_phase_.begin_cycle();
    for (int i = 0; i < kSlicesPerChunk; ++i) {
      slice_.add(bench_.timed_ms("engine.run_for", "slice",
                                 [&] { farm.run_for(kSlice); }));
      bench_.maybe_ref();
    }
  }
  virtual_s_ = kSlice.seconds() * chunks * kSlicesPerChunk;
}

void Run::churn_window(System& s) {
  const int pool = static_cast<int>(s.churn_pool.size());
  const int cycles = std::max<int>(
      static_cast<int>((samples_for_percentile(95) + pool - 1) / pool),
      args_.seconds / 2);
  bench_.charge_to(window_phase_);
  auto& farm = s.farm();
  std::vector<std::string> churned;
  int next = 0;
  auto install = [&](Series* into) {
    const TaskDef& def = s.churn_pool[static_cast<std::size_t>(next % pool)];
    const std::string name = "c" + std::to_string(next++);
    const double ms = s.install(name, def);
    if (into) into->add(ms);
    churned.push_back(name);
    s.check_placement("install");
  };
  auto remove = [&](Series* into) {
    const std::string name = churned.front();
    churned.erase(churned.begin());
    const double ms = s.remove(name);
    if (into) into->add(ms);
    s.check_placement("remove");
  };
  auto gap = [&](Series* into) {
    const double ms = bench_.timed_ms("engine.run_for", "gap",
                                      [&] { farm.run_for(kChurnGap); });
    if (into) into->add(ms);
    bench_.maybe_ref();
  };
  // Fill the sliding window first, so every measured cycle holds the same
  // ops: one install and one remove per pool entry.
  window_phase_.begin_cycle();
  while (static_cast<int>(churned.size()) < kChurnLive) {
    install(nullptr);
    gap(nullptr);
  }
  window_phase_.cycles.clear();
  for (int c = 0; c < cycles; ++c) {
    window_phase_.begin_cycle();
    for (int i = 0; i < pool; ++i) {
      install(&install_);
      gap(&gap_);
      remove(&remove_);
      gap(&gap_);
    }
  }
  virtual_s_ = kChurnGap.seconds() * 2 * pool * cycles;
}

void Run::failover_cycles(System& s, int cycles, bool window) {
  auto& farm = s.farm();
  auto& engine = farm.engine();
  const auto& reg = s.hub().registry();
  const auto m_fail = s.hub().counter("seeder.failures_detected");
  const auto m_rec = s.hub().counter("seeder.recoveries");
  const std::vector<Incident> incidents = s.incidents();
  const int per_cycle = static_cast<int>(incidents.size());
  // One cycle crashes and reboots the spine, the busy leaf and the quiet
  // leaf in turn.
  const TimePoint start = engine.now() + Duration::ms(5);
  farm::sim::FaultPlan plan;
  for (int k = 0; k < cycles * per_cycle; ++k)
    plan.crash_reboot(start + kIncident * k, kDowntime,
                      static_cast<std::uint32_t>(
                          incidents[static_cast<std::size_t>(k % per_cycle)].node));
  core::ChaosController chaos(farm, std::move(plan));
  chaos.arm();
  bench_.charge_to(failover_phase_);
  const double fail0 = reg.value(m_fail), rec0 = reg.value(m_rec);
  std::size_t verdicts = 0;
  for (int c = 0; c < cycles; ++c) {
    failover_phase_.begin_cycle();
    const TimePoint end = start + kIncident * ((c + 1) * per_cycle);
    std::uint64_t stepping_ns = 0, since_ref = 0;
    while (engine.now() < end) {
      const double before = reg.value(m_fail) + reg.value(m_rec);
      const std::uint64_t t0 = now_ns();
      engine.step();
      const std::uint64_t dt = now_ns() - t0;
      stepping_ns += dt;
      since_ref += dt;
      if (reg.value(m_fail) + reg.value(m_rec) == before) {
        if (since_ref >= kRefEveryNs) {
          bench_.ref_slice();
          since_ref = 0;
        }
        continue;
      }
      // A verdict step: a switch declared failed or recovered, and its
      // re-placement.
      const Incident& inc =
          incidents[(verdicts / 2) % incidents.size()];
      ++verdicts;
      ++bench_.ops;
      const double ms = static_cast<double>(dt) / 1e6;
      verdict_.add(ms);
      bench_.record("verdict", inc.role, ms);
      bench_.span_after("engine.step.verdict", inc.role, t0, t0 + dt);
      s.check_placement("verdict");
      bench_.ref_slice();
      since_ref = 0;
    }
    if (window) stepping_.add(static_cast<double>(stepping_ns) / 1e6);
  }
  chaos.disarm();
  const double crashes = static_cast<double>(cycles * per_cycle);
  if (reg.value(m_fail) - fail0 != crashes)
    bench_.fail("detected " + std::to_string(reg.value(m_fail) - fail0) +
                " of " + std::to_string(crashes) + " crashes");
  if (reg.value(m_rec) - rec0 != crashes)
    bench_.fail("recovered " + std::to_string(reg.value(m_rec) - rec0) +
                " of " + std::to_string(crashes) + " reboots");
  if (window) virtual_s_ = kIncident.seconds() * cycles * per_cycle;
}

int Run::execute() {
  const double steal0 = host_usage().steal_s;
  const std::uint64_t t_run = now_ns();
  auto& profiler = prof::Profiler::instance();
  profiler.set_enabled(args_.trace);

  setups();
  System& s = *main_;

  // Furrow and the counters cover the main window.
  profiler.reset();
  const Counters before = read_counters(s);
  const std::uint64_t w0 = now_ns();
  // Two verdicts per incident, three incidents per plan cycle.
  const int plan_cycles = (kMinVerdictSteps + 5) / 6;
  switch (w_.kind) {
    case Kind::kSteady:
      steady_window(s);
      break;
    case Kind::kChurn:
      churn_window(s);
      break;
    case Kind::kFailover:
      failover_cycles(s, std::max(plan_cycles, args_.seconds * 2), true);
      break;
  }
  const double window_raw_s = static_cast<double>(now_ns() - w0) / 1e9;
  const Counters window = read_counters(s) - before;
  const prof::Snapshot snap = profiler.snapshot();

  // The detection use cases caught the injected attacks.
  for (const char* kind : {"SSH brute force", "Port scan", "Heavy hitter (HH)"})
    if (s.reports_of(kind) == 0) bench_.fail(std::string("no report from ") + kind);
  diag_.put("bench.sim_digest", s.digest_with_placement(), "hash");
  layers(s, window, snap, window_raw_s);
  if (args_.trace) write_trace(s, snap);

  // fleet_steady and fleet_failover take their remove figures from the
  // teardowns, this one included.
  if (w_.kind != Kind::kChurn) {
    bench_.charge_to(setup_phase_);
    setup_phase_.begin_cycle();
    bench_.ref_slice();
    teardown(s);
    bench_.ref_slice();
  }
  main_.reset();

  // Every workload reports every end-to-end metric: fleet_steady and
  // task_churn take their failover figures from the same plan run on their
  // fleet installed on an idle fabric. On the fabric the window leaves
  // behind, the plan's work would hang on which seeds the traffic happened
  // to push into detection states (their utilities differ), and moved 50%
  // between seeds.
  if (w_.kind != Kind::kFailover) {
    bench_.charge_to(failover_phase_);
    failover_phase_.begin_cycle();  // the idle fleet's installs
    System idle(w_, args_.seed, Duration{}, bench_);
    failover_cycles(idle, plan_cycles, false);
  }

  if (w_.kind == Kind::kChurn)
    end_to_end(install_, remove_);
  else
    end_to_end(install_setup_, remove_setup_);

  const HostUsage u = host_usage();
  e2e_.put("peak_rss_mb", u.max_rss_mb, "MB");
  diag_.put("bench.ops_total", static_cast<double>(bench_.ops), "count");
  diag_.put("bench.ops_failed", static_cast<double>(bench_.failures.size()),
            "count");
  RefMeter all = setup_phase_.total();
  all.merge(window_phase_.total());
  all.merge(failover_phase_.total());
  diag_.put("host.ref_rate", all.rate(), "1/s");
  diag_.put("host.cpu_s", u.cpu_s, "s");
  diag_.put("host.nivcsw", u.nivcsw, "count");
  diag_.put("host.steal_s", u.steal_s - steal0, "s");
  diag_.put("host.hw_threads", std::thread::hardware_concurrency(), "count");
  diag_.put("host.farm_threads", farm::util::ThreadPool::default_threads(),
            "count");
  // Not per-layer metrics; the diagnostics line carries them.
  extra_.put("host.run_s", static_cast<double>(now_ns() - t_run) / 1e9, "s");
  extra_.put("host.ref_slices", all.slices, "count");
  extra_.put("host.ref_checksum",
             static_cast<double>(bench_.ref_checksum() % 1000003), "count");

  const bool ok = bench_.failures.empty();
  std::printf("diagnostics {\"end_to_end\": %s, \"layers\": %s, "
              "\"extra\": %s}\n",
              e2e_.json().c_str(), diag_.json().c_str(), extra_.json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(bench_.ops),
              bench_.failures.size(),
              (args_.trace ? diag_ : e2e_).json().c_str());
  return ok ? 0 : 1;
}

void Run::end_to_end(const Series& install, const Series& remove) {
  e2e_.put("setup_s", setup_.cycle_median(true), "s");
  diag_.put("host.raw.setup_s", setup_.cycle_median(false), "s");

  // Virtual seconds per wall second of the window's calls. task_churn
  // advances virtual time only in its gaps, but every call of its loop
  // counts as wall time.
  auto wall_ms = [&](bool scaled) {
    switch (w_.kind) {
      case Kind::kSteady:
        return slice_.sum(scaled);
      case Kind::kChurn:
        return gap_.sum(scaled) + install_.sum(scaled) + remove_.sum(scaled);
      case Kind::kFailover:
        return stepping_.sum(scaled);
    }
    return 0.0;
  };
  e2e_.put("sim_speed", virtual_s_ / (wall_ms(true) / 1e3), "sim-s/s");
  diag_.put("host.raw.sim_speed", virtual_s_ / (wall_ms(false) / 1e3), "sim-s/s");

  auto pct = [](const Series& s, double p, bool scaled) {
    auto v = s.percentile(p, scaled);
    if (!v) {
      std::fprintf(stderr, "too few samples (%zu) for p%g\n", s.size(), p);
      std::exit(4);
    }
    return *v;
  };
  for (bool scaled : {true, false}) {
    Results& out = scaled ? e2e_ : diag_;
    const std::string pre = scaled ? "" : "host.raw.";
    out.put(pre + "install_ms", install.cycle_median(scaled), "ms");
    out.put(pre + "install_p95_ms", pct(install, 95, scaled), "ms");
    out.put(pre + "remove_ms", remove.cycle_median(scaled), "ms");
    out.put(pre + "remove_p95_ms", pct(remove, 95, scaled), "ms");
    out.put(pre + "failover_ms", verdict_.cycle_median(scaled), "ms");
    out.put(pre + "failover_p90_ms", pct(verdict_, 90, scaled), "ms");
  }
}

void Run::layers(System& s, const Counters& win, const prof::Snapshot& window_snap,
                 double window_raw_s) {
  Results& m = diag_;
  // farm.* on fleet_steady describe its last set-up: the window runs no
  // placement at all.
  const bool steady = w_.kind == Kind::kSteady;
  const Counters& fc = steady ? setup_counters_ : win;
  const prof::Snapshot& fs = steady ? setup_snap_ : window_snap;
  const double ops = steady ? setup_installs_
                     : w_.kind == Kind::kChurn
                         ? static_cast<double>(install_.size() + remove_.size())
                         : static_cast<double>(verdict_.size());
  m.put("farm.reoptimize_per_op", fc.at("seeder.reoptimizes") / ops, "ratio");
  m.put("farm.reoptimize_self_ms", ns_to_ms(scope(fs, "reoptimize").self_ns), "ms");
  m.put("farm.deferred_reoptimizes", fc.at("deferred"), "count");
  m.put("farm.deployments", fc.at("deployments"), "count");
  m.put("farm.migrations", fc.at("migrations"), "count");
  m.put("farm.reseeds", fc.at("reseeds"), "count");
  m.put("farm.failures_detected", fc.at("seeder.failures_detected"), "count");
  m.put("farm.recoveries", fc.at("seeder.recoveries"), "count");

  const prof::Snapshot& snap = window_snap;
  m.put("placement.start_ms", ns_to_ms(scope(snap, "start", "placement").total_ns), "ms");
  m.put("placement.greedy_ms", ns_to_ms(scope(snap, "greedy").total_ns), "ms");
  m.put("placement.step3_ms", ns_to_ms(scope(snap, "step3", "placement").total_ns), "ms");
  m.put("placement.step4_ms",
        ns_to_ms(scope(snap, "step4_price", "placement").total_ns), "ms");
  m.put("placement.incremental_ms",
        ns_to_ms(scope(snap, "incremental", "placement").self_ns), "ms");
  const double hits = static_cast<double>(snap.counter("placement.memo.hits"));
  const double misses = static_cast<double>(snap.counter("placement.memo.misses"));
  m.put("placement.memo_hits", hits, "count");
  m.put("placement.memo_misses", misses, "count");
  m.put("placement.memo_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
        "ratio");
  m.put("placement.delta_solves",
        static_cast<double>(snap.counter("placement.incremental.delta_solves")), "count");
  m.put("placement.full_solves",
        static_cast<double>(snap.counter("placement.incremental.full_solves")), "count");
  m.put("placement.fallbacks",
        static_cast<double>(snap.counter("placement.incremental.fallbacks")), "count");

  m.put("lp.pivots", static_cast<double>(snap.counter("lp.simplex.pivots")), "count");
  m.put("lp.simplex_ms", ns_to_ms(scope(snap, "simplex").total_ns), "ms");
  m.put("lp.switch_lp_calls", static_cast<double>(scope(snap, "switch_lp").count),
        "count");
  m.put("lp.bland_steps", static_cast<double>(snap.counter("lp.simplex.bland")), "count");

  m.put("almanac.lint_ms", ns_to_ms(scope(snap, "lint").total_ns), "ms");
  m.put("almanac.lint_rejections", win.at("lint_rejections"), "count");
  m.put("almanac.handler_calls", win.at("seed.handlers"), "count");
  m.put("almanac.transits", win.at("seed.transits"), "count");

  m.put("runtime.poll_requests", win.at("poll_requests"), "count");
  m.put("runtime.poll_deliveries", win.at("poll_deliveries"), "count");
  double accuracy = 0, soils = 0;
  std::size_t seeds = 0, tcam_rules = 0;
  for (auto n : s.farm().topology().switches()) {
    auto& soil = s.farm().soil(n);
    if (soil.poll_deliveries() > 0) {
      accuracy += soil.polling_accuracy();
      soils += 1;
    }
    seeds += soil.seed_count();
    tcam_rules += static_cast<std::size_t>(
        s.farm().chassis(n).tcam().used(farm::asic::TcamRegion::kMonitoring));
  }
  m.put("runtime.polling_accuracy", soils > 0 ? accuracy / soils : 0, "ratio");
  m.put("runtime.poll_timeouts", win.at("poll_timeouts"), "count");
  m.put("runtime.poll_retries", win.at("poll_retries"), "count");
  m.put("runtime.polls_abandoned", win.at("polls_abandoned"), "count");
  m.put("runtime.bus_up_msgs", win.at("bus.up.msgs"), "count");
  m.put("runtime.bus_down_msgs", win.at("bus.down.msgs"), "count");
  m.put("runtime.bus_up_bytes", win.at("bus.up.bytes"), "bytes");
  m.put("runtime.seeds_live", static_cast<double>(seeds), "count");

  m.put("asic.pcie_requests", win.at("pcie_requests"), "count");
  m.put("asic.pcie_bytes", win.at("pcie_bytes"), "bytes");
  m.put("asic.pcie_dropped", win.at("pcie_dropped"), "count");
  m.put("asic.tcam_rules", static_cast<double>(tcam_rules), "count");
  m.put("asic.bytes_forwarded", win.at("bytes_forwarded"), "bytes");

  m.put("net.flows", static_cast<double>(s.flows), "count");

  m.put("sim.events", win.at("events"), "count");
  m.put("sim.events_per_s", win.at("events") / window_raw_s, "1/s");
  // Slices: fleet_steady's run_for slices, task_churn's gaps,
  // fleet_failover's plan cycles.
  const Series& slices = steady                     ? slice_
                         : w_.kind == Kind::kChurn ? gap_
                                                   : stepping_;
  m.put("sim.slice_p50_ms", median(slices.raw), "ms");
  m.put("sim.slice_p99_ms", slices.percentile(99, false).value_or(
                                *std::max_element(slices.raw.begin(), slices.raw.end())),
        "ms");
  m.put("sim.heap_size", static_cast<double>(s.farm().engine().heap_size()), "count");

  m.put("telemetry.scarecrow_ms",
        ns_to_ms(scope(snap, "evaluate", "scarecrow").total_ns), "ms");
  m.put("telemetry.alerts_fired", win.at("alerts_fired"), "count");
  m.put("telemetry.silo_rows_scanned",
        static_cast<double>(snap.counter("silo.rows_scanned")), "count");

  m.put("util.pool_tasks", static_cast<double>(snap.counter("pool.tasks")), "count");
  m.put("util.pool_tasks_inline",
        static_cast<double>(snap.counter("pool.tasks_inline")), "count");
}

// Writes the traced run's record: the benchmark's spans, every op with its
// task kind or switch, the Granary counters and the Furrow profile.
void Run::write_trace(System& s, const prof::Snapshot& snap) {
  if (args_.trace_out.empty()) return;
  std::ofstream os(args_.trace_out);
  auto str = [](const std::string& v) {
    std::string o = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') o += '\\';
      if (c == '\n') o += "\\n";
      else if (static_cast<unsigned char>(c) >= 0x20) o += c;
    }
    return o + "\"";
  };
  os.precision(12);
  os << "{\"workload\": " << str(w_.name) << ", \"seed\": " << args_.seed
     << ",\n\"spans\": [";
  const auto& spans = bench_.spans.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    os << (i ? ",\n" : "\n") << "[" << str(sp.name) << ", " << str(sp.label)
       << ", " << sp.start_ns << ", " << sp.end_ns << ", " << sp.parent << ", "
       << sp.op << "]";
  }
  os << "],\n\"span_fields\": [\"name\", \"label\", \"start_ns\", \"end_ns\", "
        "\"parent\", \"op\"],\n\"ops\": [";
  const auto& ops = bench_.op_records;
  for (std::size_t i = 0; i < ops.size(); ++i)
    os << (i ? ",\n" : "\n") << "[" << str(ops[i].kind) << ", "
       << str(ops[i].label) << ", " << ops[i].ms << "]";
  os << "],\n\"granary\": {";
  const auto& reg = s.hub().registry();
  for (farm::telemetry::MetricId id = 0; id < reg.size(); ++id)
    os << (id ? ",\n" : "\n") << str(reg.name(id)) << ": " << reg.value(id);
  os << "},\n\"furrow_collapsed\": ";
  std::ostringstream collapsed;
  farm::telemetry::write_prof_collapsed(collapsed, snap);
  os << str(collapsed.str()) << "}\n";
}

}  // namespace
}  // namespace farmbench

int main(int argc, char** argv) {
  using namespace farmbench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stoi(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  const WorkloadSpec* w = nullptr;
  for (const auto& spec : kWorkloads)
    if (a.workload == spec.name) w = &spec;
  if (!w || a.seconds < 1) {
    std::fprintf(stderr,
                 "usage: farm_bench --workload fleet_steady|task_churn|"
                 "fleet_failover --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  // Pin the Combine pool to one thread before anything sizes it: work
  // counts then repeat exactly from run to run.
  setenv("FARM_THREADS", "1", 1);
  Run run(*w, a);
  return run.execute();
}
