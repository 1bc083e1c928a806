// Failure injection & robustness: the runtime must degrade gracefully —
// faulty seed programs, exhausted TCAMs, mid-flight undeploys, migration
// under live traffic, and repeated install/remove cycles must never crash
// or corrupt unrelated state.
#include <gtest/gtest.h>

#include "farm/chaos.h"
#include "farm/harvesters.h"
#include "farm/system.h"
#include "farm/usecases.h"
#include "net/traffic.h"
#include "sim/fault.h"
#include "util/log.h"

namespace farm::core {
namespace {

using almanac::Value;
using sim::Duration;
using sim::TimePoint;

FarmSystemConfig tiny() {
  return FarmSystemConfig{
      .topology = {.spines = 1, .leaves = 2, .hosts_per_leaf = 2}};
}

TEST(RobustnessTest, FaultyHandlerDoesNotKillTheSeed) {
  // Division by zero inside one handler: logged, handler aborted, seed
  // keeps serving later events.
  FarmSystem farm(tiny());
  auto src = R"(
    machine M {
      place all;
      time tick = 0.01;
      long good = 0;
      long bombs = 3;
      state s {
        when (tick as t) do {
          if (bombs > 0) then {
            bombs = bombs - 1;
            long x = 1 / (bombs - bombs);
          }
          good = good + 1;
        }
      }
    }
  )";
  auto ids = farm.install_task({"t", src, {"M"}, {}});
  ASSERT_FALSE(ids.empty());
  farm.run_for(Duration::ms(200));
  auto* seed = farm.soil(farm.topology().switches()[0]).find(ids[0]);
  ASSERT_TRUE(seed);
  // The 3 bomb events aborted before good++, later ones succeeded.
  EXPECT_GE(seed->snapshot().machine_vars.at("good").as_int(), 10);
}

TEST(RobustnessTest, TcamExhaustionDropsRulesNotTheSystem) {
  FarmSystemConfig cfg = tiny();
  cfg.switch_config.tcam_capacity = 8;
  cfg.switch_config.tcam_monitoring_reserved = 4;
  FarmSystem farm(cfg);
  auto src = R"(
    machine M {
      place all;
      time tick = 0.01;
      long n = 0;
      state s {
        when (tick as t) do {
          addTCAMRule(Rule { .pattern = port 1000, .act = action_drop() });
          n = n + 1;
        }
      }
    }
  )";
  auto ids = farm.install_task({"t", src, {"M"}, {}});
  ASSERT_FALSE(ids.empty());
  farm.run_for(Duration::ms(300));  // ~30 install attempts vs 4 slots
  auto n = farm.soil(farm.topology().switches()[0])
               .find(ids[0])
               ->snapshot()
               .machine_vars.at("n")
               .as_int();
  EXPECT_GE(n, 25);  // the seed kept running through every rejection
  const auto& tcam = farm.chassis(farm.topology().switches()[0]).tcam();
  EXPECT_LE(tcam.used(asic::TcamRegion::kMonitoring), 4);
}

TEST(RobustnessTest, RemoveTaskWithTrafficInFlight) {
  FarmSystem farm(tiny());
  const auto& hh = use_case("Heavy hitter (HH)");
  farm.install_task({"hh", hh.source, hh.machines,
                     {{"threshold", Value(std::int64_t{10'000})}}});
  net::FlowSchedule sched;
  net::FlowSpec f;
  f.key = {*farm.topology().node(farm.fabric().hosts_by_leaf[0][0]).address,
           *farm.topology().node(farm.fabric().hosts_by_leaf[1][0]).address,
           4000, 80, net::Proto::kTcp};
  f.rate_bps = 500e6;
  sched.add_forever(TimePoint::origin(), f);
  farm.load_traffic(std::move(sched));
  farm.run_for(Duration::ms(100));
  farm.seeder().remove_task("hh");  // polls & messages still in flight
  farm.run_for(Duration::sec(1));   // must drain without crashing
  for (auto n : farm.topology().switches())
    EXPECT_EQ(farm.soil(n).seed_count(), 0u);
}

TEST(RobustnessTest, InstallRemoveCyclesAreStable) {
  FarmSystem farm(tiny());
  const auto& uc = use_case("Traffic change");
  for (int round = 0; round < 8; ++round) {
    auto ids = farm.install_task(
        {"tc" + std::to_string(round), uc.source, uc.machines, {}});
    EXPECT_FALSE(ids.empty());
    farm.run_for(Duration::ms(50));
    if (round % 2 == 0)
      farm.seeder().remove_task("tc" + std::to_string(round));
  }
  farm.run_for(Duration::ms(200));
  // 4 tasks remain (odd rounds), on both switches each… placement decides,
  // but every remaining task has its full seed set (C1).
  for (int round = 1; round < 8; round += 2)
    EXPECT_EQ(farm.seeder().seeds_of_task("tc" + std::to_string(round)).size(),
              farm.topology().switches().size());
}

TEST(RobustnessTest, MigrationUnderTrafficPreservesStateAndDetection) {
  // A seed placeable on two switches gets migrated by a direct snapshot
  // move while its flow keeps running; detection must continue at the new
  // location with the external threshold intact.
  FarmSystem farm(tiny());
  auto leaf0 = farm.fabric().leaf_switches[0];
  auto spine = farm.fabric().spine_switches[0];
  const auto& hh = use_case("Heavy hitter (HH)");
  auto image = runtime::MachineImage::from_source(hh.source, "HH");
  std::unordered_map<std::string, Value> ext{
      {"threshold", Value(std::int64_t{20'000})},
      {"hitterAction", Value(almanac::ActionValue{asic::RuleAction::kCount, 0})}};
  runtime::Seed* seed =
      farm.soil(leaf0).deploy({"m", "HH", 0}, image, ext);

  net::FlowSchedule sched;
  net::FlowSpec f;
  f.key = {*farm.topology().node(farm.fabric().hosts_by_leaf[0][0]).address,
           *farm.topology().node(farm.fabric().hosts_by_leaf[1][0]).address,
           4000, 80, net::Proto::kTcp};
  f.rate_bps = 500e6;
  sched.add_forever(TimePoint::origin(), f);
  farm.load_traffic(std::move(sched));
  farm.run_for(Duration::ms(120));

  runtime::SeedSnapshot snap = seed->snapshot();
  farm.soil(leaf0).undeploy({"m", "HH", 0});
  runtime::Seed* moved =
      farm.soil(spine).deploy({"m", "HH", 0}, image, ext, std::nullopt, &snap);
  farm.run_for(Duration::ms(300));
  EXPECT_EQ(moved->snapshot().machine_vars.at("threshold").as_int(), 20'000);
  EXPECT_GT(farm.soil(spine).poll_deliveries(), 0u);
}

TEST(RobustnessTest, FullSystemRunIsDeterministic) {
  auto run = [] {
    FarmSystem farm(tiny());
    CollectingHarvester harv(farm.engine(), "hh");
    farm.bus().attach_harvester("hh", harv);
    const auto& hh = use_case("Heavy hitter (HH)");
    farm.install_task({"hh", hh.source, hh.machines,
                       {{"threshold", Value(std::int64_t{50'000})}}});
    util::Rng rng(11);
    farm.load_traffic(net::heavy_hitter_workload(
        farm.topology(), rng, 0.2, 600e6, Duration::sec(1),
        Duration::sec(2)));
    farm.run_for(Duration::sec(2));
    return std::make_tuple(harv.count(), farm.bus().upstream_bytes(),
                           farm.engine().executed_events());
  };
  EXPECT_EQ(run(), run());
}

TEST(RobustnessTest, RebootAfterHeartbeatTimeoutDoesNotDoubleDeploy) {
  // The seed is re-placed on a survivor once the crash is detected; when
  // the original switch reboots and its heartbeat returns, the seeder must
  // not end up with two copies of the same seed.
  FarmSystem farm(tiny());
  auto src = R"(
    machine M {
      place any;
      poll portStats = Poll { .ival = 0.05, .what = port ANY };
      long n = 0;
      state s { when (portStats as stats) do { n = n + 1; } }
    }
  )";
  auto ids = farm.install_task({"t", src, {"M"}, {}});
  ASSERT_EQ(ids.size(), 1u);
  net::NodeId victim = net::kInvalidNode;
  for (auto n : farm.topology().switches())
    if (farm.soil(n).find(ids[0])) victim = n;
  ASSERT_NE(victim, net::kInvalidNode);

  sim::FaultPlan plan;
  plan.crash_reboot(TimePoint::origin() + Duration::sec(1), Duration::sec(2),
                    victim);
  ChaosController chaos(farm, std::move(plan));
  chaos.arm();
  farm.run_for(Duration::sec(6));  // crash at 1 s, reboot at 3 s, settle

  // Back to a fully healthy fabric…
  EXPECT_TRUE(farm.seeder().failed_nodes().empty());
  EXPECT_GE(farm.seeder().reseed_count(), 1u);
  // …with exactly one copy of the seed across all soils.
  int copies = 0;
  for (auto n : farm.topology().switches())
    if (farm.soil(n).find(ids[0])) ++copies;
  EXPECT_EQ(copies, 1);
  EXPECT_EQ(farm.seeder().seeds_of_task("t").size(), 1u);
}

TEST(RobustnessTest, CrashRebootCyclesLeakNoTcamRules) {
  // A seed polling a flow subject auto-installs a "soil-poll" count rule.
  // Repeated crash/reboot cycles re-deploy the seed each time; the
  // monitoring TCAM must end every cycle at the same occupancy.
  FarmSystem farm(tiny());
  auto src = R"(
    machine M {
      place all;
      poll flowStats = Poll { .ival = 0.05, .what = dstIP "10.0.0.0/8" };
      long n = 0;
      state s { when (flowStats as stats) do { n = n + 1; } }
    }
  )";
  auto ids = farm.install_task({"t", src, {"M"}, {}});
  ASSERT_FALSE(ids.empty());
  net::NodeId leaf0 = farm.fabric().leaf_switches[0];
  farm.run_for(Duration::ms(500));
  std::size_t baseline = farm.chassis(leaf0).tcam().rules().size();
  EXPECT_GT(baseline, 0u);  // the poll rule is installed

  for (int cycle = 0; cycle < 3; ++cycle) {
    sim::FaultPlan plan;
    plan.crash_reboot(farm.engine().now() + Duration::ms(100),
                      Duration::sec(2), leaf0);
    ChaosController chaos(farm, std::move(plan));
    chaos.arm();
    farm.run_for(Duration::sec(6));  // detect, reboot, recover, re-deploy
    EXPECT_FALSE(farm.seeder().node_failed(leaf0)) << "cycle " << cycle;
    EXPECT_EQ(farm.chassis(leaf0).tcam().rules().size(), baseline)
        << "cycle " << cycle;
  }
  // Same story after a clean undeploy: no orphaned monitoring rules.
  farm.seeder().remove_task("t");
  farm.run_for(Duration::ms(200));
  EXPECT_EQ(farm.chassis(leaf0).tcam().rules().size(), 0u);
}

TEST(RobustnessTest, UnknownHarvesterMessagesAreDropped) {
  // A task without an attached harvester sends reports into the void —
  // metered but harmless.
  FarmSystem farm(tiny());
  const auto& uc = use_case("Traffic change");
  farm.install_task({"orphan", uc.source, uc.machines,
                     {{"factor", Value(std::int64_t{1})}}});
  net::FlowSchedule sched;
  net::FlowSpec f;
  f.key = {*farm.topology().node(farm.fabric().hosts_by_leaf[0][0]).address,
           *farm.topology().node(farm.fabric().hosts_by_leaf[1][1]).address,
           4000, 80, net::Proto::kTcp};
  f.rate_bps = 300e6;
  sched.add(TimePoint::origin() + Duration::ms(500),
            TimePoint::origin() + Duration::sec(2), f);
  farm.load_traffic(std::move(sched));
  farm.run_for(Duration::sec(2));  // no crash, no handler
  SUCCEED();
}

}  // namespace
}  // namespace farm::core
