// Component microbenchmarks (google-benchmark): the hot paths whose cost
// assumptions the simulation rests on — Almanac front-end, the seed VM,
// filter matching, TCAM lookup, the traffic tick, the DES engine, and the
// simplex solver.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <vector>

#include "almanac/analysis.h"
#include "almanac/parser.h"
#include "almanac/seed_core.h"
#include "almanac/vm.h"
#include "asic/driver.h"
#include "asic/tcam.h"
#include "bench_json.h"
#include "farm/scarecrow.h"
#include "farm/usecases.h"
#include "lp/simplex.h"
#include "placement/generator.h"
#include "placement/switch_lp.h"
#include "sim/engine.h"
#include "telemetry/alert.h"
#include "telemetry/hub.h"

namespace {

using namespace farm;

void BM_ParseHeavyHitter(benchmark::State& state) {
  const auto& src = core::use_case("Heavy hitter (HH)").source;
  for (auto _ : state) {
    auto program = almanac::parse_program(src);
    benchmark::DoNotOptimize(program);
  }
}
BENCHMARK(BM_ParseHeavyHitter);

void BM_CompileMachine(benchmark::State& state) {
  const auto& uc = core::use_case("Hier. HH");
  auto program = almanac::parse_program(uc.source);
  for (auto _ : state) {
    auto cm = almanac::compile_machine(program, "HHH");
    benchmark::DoNotOptimize(cm);
  }
}
BENCHMARK(BM_CompileMachine);

void BM_SeedVmPollHandler(benchmark::State& state) {
  // Executes the HH observe handler over a 48-entry stats snapshot.
  const auto& uc = core::use_case("Heavy hitter (HH)");
  auto program = almanac::parse_program(uc.source);
  auto cm = almanac::compile_machine(program, "HH");
  almanac::Vm vm(cm, nullptr);
  almanac::Registers regs = almanac::static_machine_env(cm);
  almanac::StatsValue stats;
  for (int i = 0; i < 48; ++i)
    stats.entries->push_back(
        {"port:" + std::to_string(i), i, 0, 1000, 1'000'00});
  const int observe = cm.code->state_index("observe");
  const auto& handler =
      cm.code->states[static_cast<std::size_t>(observe)].handlers[0];
  for (auto _ : state) {
    try {
      vm.run(handler, regs, almanac::Value(stats));
    } catch (const almanac::EvalError&) {
    }
  }
}
BENCHMARK(BM_SeedVmPollHandler);

// A seed core over a host that serves nothing: what one event costs the
// event loop and the VM before a handler does any work.
class IdleHostSeed : public almanac::SeedCore {
 public:
  explicit IdleHostSeed(const almanac::CompiledMachine& m) : SeedCore(m) {
    bind({});
  }
  almanac::ResourcesValue resources() override {
    return almanac::kReferenceAlloc;
  }
  void add_tcam_rule(const asic::TcamRule&) override {}
  void remove_tcam_rule(const net::Filter&) override {}
  std::optional<asic::TcamRule> get_tcam_rule(const net::Filter&) override {
    return std::nullopt;
  }
  void send(const almanac::Value&, const almanac::SendTarget&) override {}
  void exec(const std::string&) override {}
  void trigger_updated(const std::string&) override {}
  std::int64_t switch_id() override { return 0; }
  std::int64_t now_ms() override { return 0; }
  void log(const std::string&) override {}

 private:
  void handler_ran() override {}
  void handler_failed(Site, const almanac::EvalError&) override {}
  void state_entered() override {}
  void chain_cut() override {}
};

void BM_SeedCoreTimerHandler(benchmark::State& state) {
  // One timer delivery to a handler that increments a register: the fixed
  // per-event cost most handler calls of a fleet pay.
  auto program = almanac::parse_program(R"(
    machine M {
      long n = 0;
      time tick = 1.0;
      state s { when (tick as t) do { n = n + 1; } }
    })");
  auto cm = almanac::compile_machine(program, "M");
  IdleHostSeed seed(cm);
  seed.start();
  const std::string tick = "tick";
  for (auto _ : state) seed.on_time(tick);
  benchmark::DoNotOptimize(seed.variable("n")->as_int());
}
BENCHMARK(BM_SeedCoreTimerHandler);

void BM_FilterMatch(benchmark::State& state) {
  auto f = net::Filter::conj(
      net::Filter::src_ip(*net::Prefix::parse("10.0.0.0/8")),
      net::Filter::disj(net::Filter::l4_port(443), net::Filter::l4_port(80)));
  net::PacketHeader h{*net::Ipv4::parse("10.1.2.3"),
                      *net::Ipv4::parse("11.0.0.1"),
                      40000,
                      443,
                      net::Proto::kTcp,
                      {},
                      1400};
  for (auto _ : state) benchmark::DoNotOptimize(f.matches(h));
}
BENCHMARK(BM_FilterMatch);

void BM_TcamLookup256Rules(benchmark::State& state) {
  asic::Tcam tcam(512, 512);
  for (int i = 0; i < 256; ++i) {
    asic::TcamRule r;
    r.pattern = net::Filter::l4_port(static_cast<std::uint16_t>(i + 1));
    r.priority = i;
    tcam.add_rule(r);
  }
  net::PacketHeader h{*net::Ipv4::parse("10.1.2.3"),
                      *net::Ipv4::parse("11.0.0.1"),
                      40000,
                      128,
                      net::Proto::kTcp,
                      {},
                      1400};
  for (auto _ : state) benchmark::DoNotOptimize(tcam.match(h));
}
BENCHMARK(BM_TcamLookup256Rules);

void BM_TrafficTick(benchmark::State& state) {
  // One 1 ms traffic tick over the fleet's fabric and flow mix: 4 spines,
  // 16 leaves and 4 hosts per leaf; 48 heavy hitters, 96 mice and 48
  // monitored flows into the first three leaves, which hold 24 count rules
  // each; every switch carries fourteen `proto tcp` probe samplers whose
  // callbacks make a reservoir draw, as the soil's do.
  auto sl = net::build_spine_leaf(
      {.spines = 4, .leaves = 16, .hosts_per_leaf = 4});
  const auto& topo = sl.topo;
  sim::Engine engine;
  std::vector<std::unique_ptr<asic::SwitchChassis>> chassis;
  std::vector<asic::SwitchChassis*> by_node(topo.node_count(), nullptr);
  for (net::NodeId n : topo.switches()) {
    chassis.push_back(std::make_unique<asic::SwitchChassis>(
        engine, n, topo.node(n).name, asic::SwitchConfig{}, n));
    by_node[n] = chassis.back().get();
  }
  auto addr = [&](std::size_t leaf, std::size_t h) {
    return *topo.node(sl.hosts_by_leaf[leaf % 16][h % 4]).address;
  };
  util::Rng rng(7);
  net::FlowSchedule flows;
  std::vector<net::FlowKey> monitored;
  for (std::size_t i = 0; i < 48; ++i) {
    net::FlowSpec f;
    f.key = {addr(3 + i % 13, i), addr(i % 3, i / 3),
             static_cast<std::uint16_t>(20000 + i), 443, net::Proto::kTcp};
    f.rate_bps = 40e6 * (0.75 + 0.5 * rng.next_double());
    f.flags = {.ack = true};
    flows.add_forever(sim::TimePoint::origin(), f);
    monitored.push_back(f.key);
  }
  for (std::size_t k = 0; k < 48; ++k) {
    net::FlowSpec f;
    f.key = {addr(k, k / 16), addr(k + 1, k + 1),
             static_cast<std::uint16_t>(30000 + k), 80, net::Proto::kTcp};
    f.rate_bps = 1.5e9;
    f.flags = {.ack = true};
    flows.add_forever(sim::TimePoint::origin(), f);
  }
  flows.append(net::background_traffic(topo, rng, 96, 2e6,
                                       sim::Duration::sec(3600)));
  for (std::size_t leaf = 0; leaf < 3; ++leaf)
    for (std::size_t r = 0; r < 24; ++r) {
      const net::FlowKey& k = monitored[(leaf * 16 + r) % monitored.size()];
      asic::TcamRule rule;
      rule.pattern = net::Filter::conj(
          net::Filter::src_ip(net::Prefix::host(k.src_ip)),
          net::Filter::dst_ip(net::Prefix::host(k.dst_ip)));
      by_node[sl.leaf_switches[leaf]]->tcam().add_rule(rule);
    }
  struct Reservoir {
    std::uint64_t seen = 0;
    net::PacketHeader kept;
  };
  std::vector<Reservoir> reservoirs(chassis.size() * 14);
  util::Rng draws(11);
  for (std::size_t c = 0; c < chassis.size(); ++c)
    for (std::size_t p = 0; p < 14; ++p) {
      Reservoir* res = &reservoirs[c * 14 + p];
      chassis[c]->add_sampler(
          1.0, net::Filter::proto(net::Proto::kTcp),
          [res, &draws](const net::PacketHeader& h, std::uint64_t) {
            if (draws.next_below(++res->seen) == 0) res->kept = h;
          });
    }
  asic::TrafficDriver driver(engine, topo, by_node, std::move(flows));
  driver.start();
  for (auto _ : state) engine.run_for(sim::Duration::ms(1));
  benchmark::DoNotOptimize(reservoirs.front().seen);
}
BENCHMARK(BM_TrafficTick);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 10'000; ++i)
      engine.schedule_after(sim::Duration::us(i), [] {});
    engine.run();
    benchmark::DoNotOptimize(engine.executed_events());
  }
}
BENCHMARK(BM_EngineEventThroughput)->Unit(benchmark::kMillisecond);

void BM_EngineSteadyHeap(benchmark::State& state) {
  // A warm engine at the fleet's queue depth (fleet_steady ends with
  // sim.heap_size ≈ 830): 800 timers with periods of 0.1–2 ms, each
  // re-armed when it fires as PeriodicTask and the soil's timers are. Every
  // fourth firing starts a transfer with a 1 ms timeout whose completion
  // lands 30 µs later and cancels it, as the soil's PCIe polls do. The
  // engine's slots and heap stay warm across iterations; one iteration
  // runs 10k events.
  sim::Engine engine;
  constexpr int kTimers = 800;
  std::uint64_t fired = 0;
  std::function<void(int)> arm = [&](int i) {
    engine.schedule_after(sim::Duration::us(100 + (i * 37) % 1900), [&, i] {
      if (++fired % 4 == 0) {
        sim::EventId timeout =
            engine.schedule_after(sim::Duration::ms(1), [] {});
        engine.schedule_after(sim::Duration::us(30),
                              [&engine, timeout] { engine.cancel(timeout); });
      }
      arm(i);
    });
  };
  for (int i = 0; i < kTimers; ++i) arm(i);
  engine.run_for(sim::Duration::ms(20));
  for (auto _ : state) {
    const std::uint64_t target = engine.executed_events() + 10'000;
    while (engine.executed_events() < target) engine.step();
    benchmark::DoNotOptimize(fired);
  }
  state.counters["heap"] = static_cast<double>(engine.heap_size());
  state.counters["pending"] = static_cast<double>(engine.pending_events());
}
BENCHMARK(BM_EngineSteadyHeap)->Unit(benchmark::kMillisecond);

void BM_SimplexRedistributionLp(benchmark::State& state) {
  // Representative per-switch redistribution LP: 10 seeds × 4 resources.
  for (auto _ : state) {
    lp::Model m;
    std::vector<lp::VarId> t(10);
    for (int s = 0; s < 10; ++s) {
      lp::VarId r0 = m.add_continuous("r", 0, 8, 0);
      lp::VarId r3 = m.add_continuous("p", 0, 8, 0);
      t[static_cast<std::size_t>(s)] = m.add_continuous("t", 0, 100, 1);
      m.add_constraint("epi1", {{t[static_cast<std::size_t>(s)], 1}, {r0, -1}},
                       lp::Sense::kLe, 0);
      m.add_constraint("epi2", {{t[static_cast<std::size_t>(s)], 1}, {r3, -1}},
                       lp::Sense::kLe, 0);
    }
    std::vector<lp::Term> cap;
    for (int s = 0; s < 10; ++s) cap.push_back({s * 3, 1.0});
    m.add_constraint("cap", cap, lp::Sense::kLe, 8);
    auto sol = lp::solve_lp(m);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_SimplexRedistributionLp);

// One per-switch redistribution LP at the size an install solves: 25
// generated seeds pinned to a 32-core switch make 114 rows and 325 columns
// with slacks and artificials (farmbench's LPs average 112 and 331).
// BM_SimplexRedistributionLp keeps the small-LP case.
struct SwitchLp25Seeds {
  placement::PlacementProblem problem;
  placement::SwitchModel sw;
  std::vector<placement::PinnedSeed> pinned;  // points into problem

  SwitchLp25Seeds() {
    placement::GeneratorSpec spec;
    spec.n_switches = 1;
    spec.n_tasks = 5;
    spec.seeds_per_task = 5;
    spec.candidates_per_seed = 1;
    problem = placement::generate_problem(spec);
    sw = problem.switches[0];
    sw.capacity = {32, 32768, 2048, 8};
    for (const auto& seed : problem.seeds) pinned.push_back({&seed, 0});
  }
  SwitchLp25Seeds(const SwitchLp25Seeds&) = delete;

  void count_rows(benchmark::State& state) const {
    state.counters["rows"] = static_cast<double>(
        placement::redistribution_model(sw, pinned, {}).num_constraints());
  }
};

void BM_SwitchLp25Seeds(benchmark::State& state) {
  const SwitchLp25Seeds lp;
  lp.count_rows(state);
  if (!placement::redistribute_on_switch(lp.sw, lp.pinned, {}))
    state.SkipWithError("the 25-seed LP is infeasible");
  for (auto _ : state) {
    auto result = placement::redistribute_on_switch(lp.sw, lp.pinned, {});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SwitchLp25Seeds);

// The same LP through the value-only solve that step 4's screen runs: its
// one-term rows fold into bounds, and no allocation comes back.
void BM_SwitchLpValue25Seeds(benchmark::State& state) {
  const SwitchLp25Seeds lp;
  lp.count_rows(state);
  if (!placement::redistribution_value(lp.sw, lp.pinned, {}))
    state.SkipWithError("the 25-seed LP is infeasible");
  for (auto _ : state) {
    auto value = placement::redistribution_value(lp.sw, lp.pinned, {});
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_SwitchLpValue25Seeds);

void BM_AlertEvaluate128Metrics(benchmark::State& state) {
  // One Scarecrow evaluator tick over a 128-metric registry with the six
  // default SLO rules installed. This is the entire per-period cost the
  // alerting layer adds to a run — it reads live aggregates only, never the
  // event store.
  sim::Engine engine;
  telemetry::Hub& tel = engine.telemetry();
  std::vector<telemetry::MetricId> gauges;
  for (int i = 0; i < 128; ++i) {
    gauges.push_back(tel.gauge("soil.sw" + std::to_string(i) +
                               ".poll_deliveries"));
  }
  telemetry::AlertManager mgr(tel);
  for (const auto& spec : core::Scarecrow::default_rules()) {
    mgr.add_rule(spec);
  }
  std::uint64_t tick = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < gauges.size(); i += 7)
      tel.level(gauges[i], static_cast<double>(tick));
    engine.schedule_after(sim::Duration::ms(100), [] {});
    engine.run();
    ++tick;
    mgr.evaluate(engine.now());
    benchmark::DoNotOptimize(mgr.firing_count());
  }
}
BENCHMARK(BM_AlertEvaluate128Metrics);

// Console output stays byte-identical to BENCHMARK_MAIN(); each reported run
// is additionally recorded into BENCH_micro.json for the bench trajectory.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(farm::bench::BenchJson& out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      out_.record(run.benchmark_name(), run.GetAdjustedRealTime(),
                  benchmark::GetTimeUnitString(run.time_unit),
                  {farm::bench::param("iterations",
                                      static_cast<double>(run.iterations))});
    }
  }

 private:
  farm::bench::BenchJson& out_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  farm::bench::BenchJson out("micro");
  JsonTeeReporter reporter(out);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
