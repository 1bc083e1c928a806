// End-to-end tests: seeder elaboration/deployment/migration, FarmSystem,
// and all Table I use cases parsing, compiling, and detecting their target
// anomalies on simulated traffic.
#include <gtest/gtest.h>

#include <cstring>

#include "almanac/analysis.h"
#include "farm/harvesters.h"
#include "farm/system.h"
#include "farm/usecases.h"
#include "net/traffic.h"

namespace farm::core {
namespace {

using almanac::Value;
using sim::Duration;
using sim::TimePoint;

FarmSystemConfig small_config() {
  FarmSystemConfig cfg;
  cfg.topology = {.spines = 2, .leaves = 4, .hosts_per_leaf = 4};
  return cfg;
}

TEST(UseCaseTest, AllProgramsParseAndCompile) {
  for (const auto& uc : all_use_cases()) {
    SCOPED_TRACE(uc.name);
    auto program = almanac::parse_program(uc.source);
    for (const auto& mname : uc.machines) {
      auto cm = almanac::compile_machine(program, mname);
      EXPECT_FALSE(cm.states.empty());
      // Every state's util must pass the §III-A f restrictions and the
      // polynomial analysis.
      for (const auto& st : cm.states) {
        if (st.util) {
          EXPECT_NO_THROW(almanac::analyze_utility(*st.util));
        }
      }
    }
  }
}

TEST(UseCaseTest, TableOneLocIsPlausible) {
  // Not asserting exact numbers (our concrete syntax differs), but each
  // use case must be succinct — the DSL's point — and non-trivial.
  for (const auto& uc : all_use_cases()) {
    SCOPED_TRACE(uc.name);
    EXPECT_GE(uc.seed_loc, 7);
    EXPECT_LE(uc.seed_loc, 200);
  }
  // Inherited HHH must be much smaller than the standalone one.
  EXPECT_LT(use_case("Hier. HH (inherited)").seed_loc,
            use_case("Hier. HH").seed_loc);
}

TEST(SeederTest, InstallsHhTaskOnEverySwitch) {
  FarmSystem farm(small_config());
  const auto& hh = use_case("Heavy hitter (HH)");
  TaskSpec spec{"hh", hh.source, hh.machines, {}};
  auto ids = farm.install_task(spec);
  // place all → one seed per switch (6 switches).
  EXPECT_EQ(ids.size(), farm.topology().switches().size());
  for (const auto& id : ids) {
    EXPECT_EQ(id.task, "hh");
    EXPECT_EQ(id.machine, "HH");
  }
  EXPECT_EQ(farm.seeder().deployments(), ids.size());
}

TEST(SeederTest, RemoveTaskUndeploysEverything) {
  FarmSystem farm(small_config());
  const auto& hh = use_case("Heavy hitter (HH)");
  farm.install_task({"hh", hh.source, hh.machines, {}});
  farm.seeder().remove_task("hh");
  for (auto n : farm.topology().switches())
    EXPECT_EQ(farm.soil(n).seed_count(), 0u);
}

TEST(SeederTest, ExternalsReachSeeds) {
  FarmSystem farm(small_config());
  const auto& hh = use_case("Heavy hitter (HH)");
  TaskSpec spec{"hh", hh.source, hh.machines,
                {{"threshold", Value(std::int64_t{777})}}};
  auto ids = farm.install_task(spec);
  ASSERT_FALSE(ids.empty());
  runtime::Seed* seed = farm.soil(farm.topology().switches()[0]).find(ids[0]);
  ASSERT_TRUE(seed);
  EXPECT_EQ(seed->snapshot().machine_vars.at("threshold").as_int(), 777);
}

TEST(SeederTest, MultipleTasksCoexist) {
  FarmSystem farm(small_config());
  const auto& hh = use_case("Heavy hitter (HH)");
  const auto& tc = use_case("Traffic change");
  farm.install_task({"hh", hh.source, hh.machines, {}});
  farm.install_task({"tc", tc.source, tc.machines, {}});
  auto n = farm.topology().switches()[0];
  EXPECT_EQ(farm.soil(n).seed_count(), 2u);
  // Both poll `port ANY` — the soil must aggregate them into one group.
  farm.run_for(Duration::ms(100));
  EXPECT_GT(farm.soil(n).poll_deliveries(), 0u);
}

TEST(SeederTest, PlacementProblemReflectsLiveState) {
  FarmSystem farm(small_config());
  const auto& hh = use_case("Heavy hitter (HH)");
  farm.install_task({"hh", hh.source, hh.machines, {}});
  auto problem = farm.seeder().build_problem();
  EXPECT_EQ(problem.switches.size(), farm.topology().switches().size());
  EXPECT_EQ(problem.seeds.size(), farm.topology().switches().size());
  EXPECT_EQ(problem.current_placement.size(), problem.seeds.size());
  for (const auto& s : problem.seeds) {
    EXPECT_FALSE(s.variants.empty());
    EXPECT_FALSE(s.polls.empty());
  }
}

TEST(SeederTest, ReoptimizeIsStable) {
  // Re-running placement with nothing changed must not migrate anything.
  FarmSystem farm(small_config());
  const auto& hh = use_case("Heavy hitter (HH)");
  farm.install_task({"hh", hh.source, hh.machines, {}});
  auto migrations_before = farm.seeder().migrations_performed();
  farm.seeder().reoptimize();
  farm.run_for(Duration::ms(50));
  EXPECT_EQ(farm.seeder().migrations_performed(), migrations_before);
}

// Needs one core while it warms up, then turns vCPU-hungry. Its allocation
// stays at the one core it was granted, so an install that crowds its
// switch can free that core by moving it to an idle one.
constexpr const char* kMover = R"ALM(
machine Mover {
  place any a, b;
  external long a = 0;
  external long b = 0;
  time tick = 0.01;
  long n = 0;
  state warm {
    util (res) { if (res.vCPU >= 1) then { return 1; } }
    when (tick as t) do {
      n = n + 1;
      if (n >= 3) then { transit hot; }
    }
  }
  state hot {
    util (res) { if (res.vCPU >= 0.5) then { return res.vCPU; } }
    when (tick as t) do { n = n + 1; }
  }
}
)ALM";

// Three cores' worth of constant utility on switch `at`.
constexpr const char* kSquatter = R"ALM(
machine Squatter {
  place any at;
  external long at = 0;
  state run {
    util (res) { if (res.vCPU >= 3) then { return 10; } }
  }
}
)ALM";

TEST(SeederTest, InstallLiveMigratesSeedOnceAndResolvesOnLanding) {
  FarmSystem farm(FarmSystemConfig{
      .topology = {.spines = 1, .leaves = 2, .hosts_per_leaf = 1}});
  Seeder& seeder = farm.seeder();
  const net::NodeId l0 = farm.fabric().leaf_switches[0];
  const net::NodeId l1 = farm.fabric().leaf_switches[1];
  auto host_of = [&](const runtime::SeedId& id) {
    for (net::NodeId n : {l0, l1})
      if (farm.soil(n).find(id)) return n;
    return net::kInvalidNode;
  };
  auto passes = [&] {
    return farm.telemetry().query().label("seeder.reoptimizes").total();
  };
  auto ids = farm.install_task(
      {"mover",
       kMover,
       {},
       {{"a", Value(static_cast<std::int64_t>(l0))},
        {"b", Value(static_cast<std::int64_t>(l1))}}});
  ASSERT_EQ(ids.size(), 1u);
  const net::NodeId source = host_of(ids[0]);
  const net::NodeId target = source == l0 ? l1 : l0;
  farm.run_for(Duration::ms(100));
  const runtime::Seed* seed = farm.soil(source).find(ids[0]);
  ASSERT_EQ(seed->current_state(), "hot");
  const std::int64_t n_before = seed->variable("n")->as_int();

  // The squatter takes three of the source's four cores; the mover gains
  // more on the idle leaf than it keeps at the source.
  const std::uint64_t moves = seeder.migrations_performed();
  farm.install_task({"squat",
                     kSquatter,
                     {},
                     {{"at", Value(static_cast<std::int64_t>(source))}}});
  EXPECT_EQ(seeder.migrations_performed(), moves + 1);
  EXPECT_EQ(host_of(ids[0]), source) << "runs at the source until it lands";
  // A pass while the state is in flight leaves the seed alone: the move
  // is shipped and counted once.
  seeder.reoptimize();
  EXPECT_EQ(seeder.migrations_performed(), moves + 1);

  const double before_landing = passes();
  farm.run_for(Duration::ms(5));
  ASSERT_EQ(host_of(ids[0]), target);
  const runtime::Seed* moved = farm.soil(target).find(ids[0]);
  EXPECT_EQ(moved->current_state(), "hot");
  EXPECT_GE(moved->variable("n")->as_int(), n_before);
  EXPECT_EQ(seeder.migrations_performed(), moves + 1);
  EXPECT_EQ(passes() - before_landing, 1) << "the landing re-solves once";
}

// A timer walks the seed from `warm` through `hot` to `quiet`, which has
// no util.
constexpr const char* kPhases = R"ALM(
machine Phases {
  place any at;
  external long at = 0;
  time tick = 0.01;
  long n = 0;
  state warm {
    util (res) { if (res.vCPU >= 1) then { return 1; } }
    when (tick as t) do {
      n = n + 1;
      if (n >= 3) then { transit hot; }
    }
  }
  state hot {
    util (res) { if (res.vCPU >= 0.5) then { return res.vCPU; } }
    when (tick as t) do {
      n = n + 1;
      if (n >= 8) then { transit quiet; }
    }
  }
  state quiet {
    when (tick as t) do { n = n + 1; }
  }
}
)ALM";

bool same_bits(const std::vector<almanac::Poly>& a,
               const std::vector<almanac::Poly>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i].c0, &b[i].c0, sizeof a[i].c0) != 0 ||
        std::memcmp(a[i].coeff.data(), b[i].coeff.data(),
                    sizeof a[i].coeff) != 0)
      return false;
  return true;
}

bool same_bits(const std::vector<almanac::UtilityVariant>& a,
               const std::vector<almanac::UtilityVariant>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i].constraints, b[i].constraints) ||
        !same_bits(a[i].util_min_terms, b[i].util_min_terms))
      return false;
  return true;
}

TEST(SeederTest, LiveSeedContributesItsCurrentStateUtility) {
  FarmSystem farm(FarmSystemConfig{
      .topology = {.spines = 1, .leaves = 2, .hosts_per_leaf = 1}});
  const net::NodeId leaf = farm.fabric().leaf_switches[0];
  auto ids = farm.install_task(
      {"phases", kPhases, {}, {{"at", Value(static_cast<std::int64_t>(leaf))}}});
  ASSERT_EQ(ids.size(), 1u);
  const runtime::Seed* seed = farm.soil(leaf).find(ids[0]);
  ASSERT_TRUE(seed);
  auto problem_variants = [&] {
    for (const auto& sm : farm.seeder().build_problem().seeds)
      if (sm.id == ids[0].to_string()) return sm.variants;
    ADD_FAILURE() << "the seed is missing from the problem";
    return std::vector<almanac::UtilityVariant>{};
  };
  auto compiled_variants = [&](const std::string& state) {
    return seed->machine().state(state)->utility_analysis()->variants;
  };

  ASSERT_EQ(seed->current_state(), "warm");
  EXPECT_TRUE(same_bits(problem_variants(), compiled_variants("warm")));
  farm.run_for(Duration::ms(35));
  ASSERT_EQ(seed->current_state(), "hot");
  EXPECT_TRUE(same_bits(problem_variants(), compiled_variants("hot")));
  // No util: the seed is worth default_utility(), not its initial state.
  farm.run_for(Duration::ms(50));
  ASSERT_EQ(seed->current_state(), "quiet");
  EXPECT_TRUE(
      same_bits(problem_variants(), almanac::default_utility().variants));
  EXPECT_TRUE(same_bits(compiled_variants("quiet"),
                        almanac::default_utility().variants));
}

// --- End-to-end detection scenarios ------------------------------------------

TEST(EndToEndTest, HeavyHitterDetectionAndMitigation) {
  FarmSystem farm(small_config());
  HhHarvester harv(farm.engine(), "hh");
  farm.bus().attach_harvester("hh", harv);
  const auto& hh = use_case("Heavy hitter (HH)");
  farm.install_task(
      {"hh", hh.source, hh.machines,
       {{"threshold", Value(std::int64_t{100'000})},
        {"hitterAction",
         Value(almanac::ActionValue{asic::RuleAction::kRateLimit, 1e6})}}});

  // One elephant flow between two leaves.
  net::FlowSchedule sched;
  net::FlowSpec f;
  f.key = {*farm.topology().node(farm.fabric().hosts_by_leaf[0][0]).address,
           *farm.topology().node(farm.fabric().hosts_by_leaf[1][0]).address,
           4000, 443, net::Proto::kTcp};
  f.rate_bps = 800e6;
  f.packet_bytes = 1400;
  sched.add_forever(TimePoint::origin(), f);
  farm.load_traffic(std::move(sched));
  farm.run_for(Duration::sec(1));

  EXPECT_FALSE(harv.reports.empty());
  // Local reaction installed somewhere along the flow's path.
  bool limited = false;
  for (auto n : farm.topology().switches())
    for (const auto& r : farm.chassis(n).tcam().rules())
      if (r.action == asic::RuleAction::kRateLimit) limited = true;
  EXPECT_TRUE(limited);
}

TEST(EndToEndTest, SshBruteForceBlockedLocally) {
  FarmSystem farm(small_config());
  CollectingHarvester harv(farm.engine(), "ssh");
  farm.bus().attach_harvester("ssh", harv);
  const auto& uc = use_case("SSH brute force");
  farm.install_task({"ssh", uc.source, uc.machines,
                     {{"attemptThreshold", Value(std::int64_t{5})}}});

  auto attacker = *farm.topology()
                       .node(farm.fabric().hosts_by_leaf[0][0])
                       .address;
  auto target =
      *farm.topology().node(farm.fabric().hosts_by_leaf[2][0]).address;
  auto sched = net::ssh_brute_force(attacker, target, 200, Duration::ms(20),
                                    TimePoint::origin());
  farm.load_traffic(std::move(sched));
  farm.run_for(Duration::sec(3));

  EXPECT_FALSE(harv.reports.empty());
  // The seed dropped the attacker at the ingress leaf.
  bool dropped = false;
  for (auto n : farm.topology().switches())
    for (const auto& r : farm.chassis(n).tcam().rules())
      if (r.action == asic::RuleAction::kDrop) dropped = true;
  EXPECT_TRUE(dropped);
}

TEST(EndToEndTest, PortScanDetected) {
  FarmSystem farm(small_config());
  CollectingHarvester harv(farm.engine(), "scan");
  farm.bus().attach_harvester("scan", harv);
  const auto& uc = use_case("Port scan");
  farm.install_task({"scan", uc.source, uc.machines,
                     {{"portThreshold", Value(std::int64_t{10})}}});

  auto attacker =
      *farm.topology().node(farm.fabric().hosts_by_leaf[0][1]).address;
  auto target =
      *farm.topology().node(farm.fabric().hosts_by_leaf[3][0]).address;
  auto sched = net::port_scan(attacker, target, 1000, 200, 1e5,
                              TimePoint::origin(), Duration::sec(2));
  farm.load_traffic(std::move(sched));
  farm.run_for(Duration::sec(3));
  ASSERT_FALSE(harv.reports.empty());
  EXPECT_TRUE(harv.reports[0].second.is_string());
  EXPECT_EQ(harv.reports[0].second.as_string(), attacker.to_string());
}

TEST(EndToEndTest, TrafficChangeReported) {
  FarmSystem farm(small_config());
  CollectingHarvester harv(farm.engine(), "tc");
  farm.bus().attach_harvester("tc", harv);
  const auto& uc = use_case("Traffic change");
  farm.install_task({"tc", uc.source, uc.machines,
                     {{"factor", Value(std::int64_t{2})}}});

  // Quiet baseline then a sudden 50× surge.
  net::FlowSchedule sched;
  net::FlowSpec quiet;
  quiet.key = {*farm.topology().node(farm.fabric().hosts_by_leaf[0][0]).address,
               *farm.topology().node(farm.fabric().hosts_by_leaf[1][0]).address,
               4000, 80, net::Proto::kTcp};
  quiet.rate_bps = 1e6;
  sched.add(TimePoint::origin(), TimePoint::origin() + Duration::sec(2), quiet);
  net::FlowSpec surge = quiet;
  surge.rate_bps = 900e6;
  surge.key.src_port = 4001;
  sched.add(TimePoint::origin() + Duration::sec(2),
            TimePoint::origin() + Duration::sec(4), surge);
  farm.load_traffic(std::move(sched));
  farm.run_for(Duration::sec(4));
  EXPECT_FALSE(harv.reports.empty());
}

TEST(EndToEndTest, AllUseCasesDeployTogether) {
  // The paper's premise: many tasks side-by-side. Install every Table I
  // use case at once; placement and the soils must cope.
  FarmSystemConfig cfg = small_config();
  cfg.switch_config.cpu_cores = 8;
  FarmSystem farm(cfg);
  std::vector<std::unique_ptr<CollectingHarvester>> harvesters;
  int i = 0;
  std::size_t installed = 0;
  for (const auto& uc : all_use_cases()) {
    std::string task = "t" + std::to_string(i++);
    harvesters.push_back(
        std::make_unique<CollectingHarvester>(farm.engine(), task));
    farm.bus().attach_harvester(task, *harvesters.back());
    auto ids = farm.install_task({task, uc.source, uc.machines, {}});
    installed += ids.size();
  }
  EXPECT_GT(installed, 5 * farm.topology().switches().size());
  util::Rng rng(3);
  farm.load_traffic(net::heavy_hitter_workload(farm.topology(), rng, 0.05,
                                               500e6, Duration::sec(30),
                                               Duration::sec(2)));
  farm.run_for(Duration::sec(2));  // must run without aborting
  // The soils kept polling throughout.
  std::uint64_t deliveries = 0;
  for (auto n : farm.topology().switches())
    deliveries += farm.soil(n).poll_deliveries();
  EXPECT_GT(deliveries, 100u);
}

}  // namespace
}  // namespace farm::core
