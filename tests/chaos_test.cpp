// Chaos & fault-injection scenarios: scripted and RNG-seeded fault plans
// driven through the full stack (topology liveness → reroute, switch crash
// → seeder heartbeat detection → re-placement, PCIe loss → poll retry).
// Every scenario must be deterministic: the same plan (or the same RNG
// seed) replays to identical metrics.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "farm/chaos.h"
#include "farm/harvesters.h"
#include "farm/system.h"
#include "net/traffic.h"
#include "sim/fault.h"
#include "telemetry/hub.h"

namespace farm::core {
namespace {

using almanac::Value;
using sim::Duration;
using sim::TimePoint;

TimePoint at(std::int64_t ms) { return TimePoint::origin() + Duration::ms(ms); }

// A seed placeable on any switch: reports a counter on every port poll.
// Used to observe "reports keep flowing / resume" across faults.
constexpr const char* kReporterAny = R"(
  machine Reporter {
    place any;
    poll portStats = Poll { .ival = 0.05, .what = port ANY };
    long n = 0;
    state s {
      when (portStats as stats) do {
        n = n + 1;
        send n to harvester;
      }
    }
  }
)";

// Same reporter, one seed per switch.
constexpr const char* kReporterAll = R"(
  machine Reporter {
    place all;
    poll portStats = Poll { .ival = 0.05, .what = port ANY };
    long n = 0;
    state s {
      when (portStats as stats) do {
        n = n + 1;
        send n to harvester;
      }
    }
  }
)";

net::NodeId hosting_node(FarmSystem& farm, const runtime::SeedId& id) {
  for (auto n : farm.topology().switches())
    if (farm.soil(n).find(id)) return n;
  return net::kInvalidNode;
}

TEST(ChaosTest, LinkFlapReroutesTrafficAroundDeadLink) {
  FarmSystem farm(FarmSystemConfig{
      .topology = {.spines = 2, .leaves = 2, .hosts_per_leaf = 2}});
  net::NodeId src = farm.fabric().hosts_by_leaf[0][0];
  net::NodeId dst = farm.fabric().hosts_by_leaf[1][0];

  net::FlowSchedule sched;
  net::FlowSpec f;
  f.key = {*farm.topology().node(src).address,
           *farm.topology().node(dst).address, 4000, 80, net::Proto::kTcp};
  f.rate_bps = 200e6;
  sched.add_forever(TimePoint::origin(), f);
  farm.load_traffic(std::move(sched));

  // The spine the flow currently crosses (host-leaf-spine-leaf-host).
  net::Path path = farm.topology().shortest_path(src, dst);
  ASSERT_EQ(path.size(), 5u);
  net::NodeId leaf0 = path[1], used_spine = path[2];

  sim::FaultPlan plan;
  plan.link_flap(at(1000), Duration::sec(1), leaf0, used_spine);
  ChaosController chaos(farm, std::move(plan));
  chaos.arm();

  farm.run_for(Duration::ms(1500));  // mid-outage
  EXPECT_FALSE(farm.topology().link_up(leaf0, used_spine));
  // Path recomputation avoids the dead link: the flow crosses the other
  // spine now.
  net::Path rerouted = farm.topology().shortest_path(src, dst);
  ASSERT_EQ(rerouted.size(), 5u);
  EXPECT_NE(rerouted[2], used_spine);

  // Traffic keeps arriving during the outage (ECMP sibling absorbed it).
  std::uint64_t mid = farm.traffic()->bytes_delivered_to(dst);
  EXPECT_GT(mid, 0u);
  farm.run_for(Duration::ms(400));
  EXPECT_GT(farm.traffic()->bytes_delivered_to(dst), mid);

  farm.run_for(Duration::ms(1100));  // past the up event
  EXPECT_TRUE(farm.topology().link_up(leaf0, used_spine));
  EXPECT_EQ(chaos.injector().injected(), 2u);
  EXPECT_EQ(chaos.injector().injected(sim::FaultKind::kLinkDown), 1u);
  EXPECT_EQ(chaos.injector().injected(sim::FaultKind::kLinkUp), 1u);
}

// The acceptance scenario: a scripted leaf kill mid-task. The heartbeat
// must detect the dead switch, placement must move the seed to a survivor,
// and harvester reports must resume — all deterministically (same scenario
// twice ⇒ identical metrics).
TEST(ChaosTest, LeafCrashDetectedSeedReplacedReportsResume) {
  struct Outcome {
    std::size_t reports_before, reports_total;
    std::uint64_t reseeds, detections;
    double detection_latency;
    std::int64_t first_resume_ns;
    std::uint64_t executed_events, upstream_bytes;
    bool operator==(const Outcome&) const = default;
  };
  auto run = [] {
    FarmSystem farm(FarmSystemConfig{
        .topology = {.spines = 1, .leaves = 2, .hosts_per_leaf = 2}});
    CollectingHarvester harv(farm.engine(), "chaos");
    farm.bus().attach_harvester("chaos", harv);
    auto ids = farm.install_task({"chaos", kReporterAny, {"Reporter"}, {}});
    EXPECT_EQ(ids.size(), 1u);
    net::NodeId victim = hosting_node(farm, ids[0]);
    EXPECT_NE(victim, net::kInvalidNode);

    sim::FaultPlan plan;
    plan.crash(at(1050), victim);
    ChaosController chaos(farm, std::move(plan));
    chaos.arm();

    farm.run_for(Duration::ms(1050));
    std::size_t before = harv.count();
    EXPECT_GT(before, 0u);  // reports flowed pre-crash
    farm.run_for(Duration::ms(2950));

    Seeder& seeder = farm.seeder();
    EXPECT_TRUE(seeder.node_failed(victim));
    EXPECT_EQ(seeder.failed_nodes(), std::vector<net::NodeId>{victim});
    EXPECT_EQ(seeder.failures_detected(), 1u);
    // Detection within the heartbeat window: period × (miss_limit + 2)
    // bounds timeout plus tick alignment.
    EXPECT_LE(seeder.detection_latency_max(), 0.25 * 5);
    EXPECT_GE(seeder.reseed_count(), 1u);

    // The seed lives on a survivor now.
    net::NodeId now_at = hosting_node(farm, ids[0]);
    EXPECT_NE(now_at, net::kInvalidNode);
    EXPECT_NE(now_at, victim);

    // Reports resumed within a bounded virtual-time window after the kill:
    // detection (≤ 1.25 s) + redeploy + one poll interval.
    std::int64_t first_resume = -1;
    for (std::size_t i = before; i < harv.times.size(); ++i) {
      if (harv.times[i] > at(1050)) {
        first_resume = harv.times[i].count_ns();
        break;
      }
    }
    EXPECT_NE(first_resume, -1);
    EXPECT_LE(first_resume, at(1050 + 1250 + 500).count_ns());
    EXPECT_GT(harv.count(), before);

    return Outcome{before,
                   harv.count(),
                   seeder.reseed_count(),
                   seeder.failures_detected(),
                   seeder.detection_latency_max(),
                   first_resume,
                   farm.engine().executed_events(),
                   farm.bus().upstream_bytes()};
  };
  Outcome a = run(), b = run();
  EXPECT_EQ(a, b);  // deterministic replay of the whole scenario
}

TEST(ChaosTest, SpineCrashPartitionsFabricSurvivorsKeepReporting) {
  // One spine: killing it cuts every leaf-leaf path, but the out-of-band
  // management network keeps survivor seeds reporting, and the seeder
  // flags exactly the spine as dead.
  FarmSystem farm(FarmSystemConfig{
      .topology = {.spines = 1, .leaves = 2, .hosts_per_leaf = 2}});
  CollectingHarvester harv(farm.engine(), "chaos");
  farm.bus().attach_harvester("chaos", harv);
  auto ids = farm.install_task({"chaos", kReporterAll, {"Reporter"}, {}});
  ASSERT_EQ(ids.size(), 3u);  // one per switch
  net::NodeId spine = farm.fabric().spine_switches[0];
  auto leaves = farm.fabric().leaf_switches;

  sim::FaultPlan plan;
  plan.crash(at(1000), spine);
  ChaosController chaos(farm, std::move(plan));
  chaos.arm();
  farm.run_for(Duration::sec(3));

  EXPECT_TRUE(farm.seeder().node_failed(spine));
  EXPECT_FALSE(farm.seeder().node_failed(leaves[0]));
  EXPECT_FALSE(farm.seeder().node_failed(leaves[1]));
  // Data-plane partition: no leaf-to-leaf path without the spine.
  EXPECT_TRUE(farm.topology().shortest_path(leaves[0], leaves[1]).empty());

  // The spine's seed is gone (its only candidate died); the leaf seeds
  // survived in place and kept reporting through the partition.
  EXPECT_EQ(farm.seeder().seeds_of_task("chaos").size(), 2u);
  std::size_t late_leaf_reports = 0;
  for (std::size_t i = 0; i < harv.times.size(); ++i)
    if (harv.times[i] > at(2000)) ++late_leaf_reports;
  EXPECT_GT(late_leaf_reports, 0u);
}

TEST(ChaosTest, PollLossBurstTimesOutRetriesAndRecovers) {
  FarmSystem farm(FarmSystemConfig{
      .topology = {.spines = 1, .leaves = 2, .hosts_per_leaf = 2}});
  CollectingHarvester harv(farm.engine(), "chaos");
  farm.bus().attach_harvester("chaos", harv);
  auto ids = farm.install_task({"chaos", kReporterAll, {"Reporter"}, {}});
  ASSERT_FALSE(ids.empty());
  net::NodeId leaf0 = farm.fabric().leaf_switches[0];

  sim::FaultPlan plan;
  plan.poll_loss(at(500), Duration::sec(2), leaf0, 0.5);
  ChaosController chaos(farm, std::move(plan));
  chaos.arm();

  farm.run_for(Duration::ms(2500));  // loss window just ended
  runtime::Soil& soil = farm.soil(leaf0);
  EXPECT_GT(soil.poll_timeouts(), 0u);
  EXPECT_GT(soil.poll_retries(), 0u);
  EXPECT_GT(soil.poll_deliveries(), 0u);  // retries pulled polls through
  EXPECT_EQ(farm.chassis(leaf0).pcie().loss_rate(), 0.0);

  // Clean channel again: deliveries keep advancing, no new timeouts pile
  // up at the loss-free rate. (Let in-flight stragglers from the window
  // drain before snapshotting.)
  farm.run_for(Duration::ms(500));
  std::uint64_t delivered_mid = soil.poll_deliveries();
  std::uint64_t timeouts_mid = soil.poll_timeouts();
  farm.run_for(Duration::ms(1500));
  EXPECT_GT(soil.poll_deliveries(), delivered_mid);
  EXPECT_EQ(soil.poll_timeouts(), timeouts_mid);
  // The switch never counted as failed — polls were lossy, heartbeats fine.
  EXPECT_FALSE(farm.seeder().node_failed(leaf0));
}

TEST(ChaosTest, RandomPlanChaosRunsToCompletionDeterministically) {
  auto run = [](std::uint64_t seed) {
    FarmSystem farm(FarmSystemConfig{
        .topology = {.spines = 2, .leaves = 4, .hosts_per_leaf = 2}});
    CollectingHarvester harv(farm.engine(), "chaos");
    farm.bus().attach_harvester("chaos", harv);
    farm.install_task({"chaos", kReporterAll, {"Reporter"}, {}});

    sim::ChaosSpec spec = ChaosController::default_spec(farm);
    spec.start = at(500);
    spec.end = at(3500);
    spec.incidents = 10;
    sim::FaultPlan plan = sim::random_plan(spec, seed);
    EXPECT_EQ(plan.size(), 20u);  // every incident emits its down+up pair
    ChaosController chaos(farm, std::move(plan));
    chaos.arm();

    util::Rng rng(7);
    farm.load_traffic(net::background_traffic(farm.topology(), rng, 40, 5e6,
                                              Duration::sec(5)));
    farm.run_for(Duration::sec(5));

    std::uint64_t timeouts = 0;
    for (auto* s : farm.soils()) timeouts += s->poll_timeouts();
    return std::make_tuple(
        farm.engine().executed_events(), chaos.injector().injected(),
        harv.count(), farm.bus().upstream_bytes(), timeouts,
        farm.seeder().reseed_count(),
        farm.seeder().failures_detected(),
        farm.seeder().failed_nodes().size());
  };
  auto a = run(2024), b = run(2024);
  EXPECT_EQ(a, b);
  // All scheduled faults fired.
  EXPECT_EQ(std::get<1>(a), 20u);
  // A different seed yields a genuinely different scenario.
  EXPECT_NE(run(99), a);
}

TEST(ChaosTest, FaultMarksPrecedeSymptomsAndFlightRecorderDumps) {
  FarmSystem farm(FarmSystemConfig{
      .topology = {.spines = 1, .leaves = 2, .hosts_per_leaf = 2}});
  CollectingHarvester harv(farm.engine(), "chaos");
  farm.bus().attach_harvester("chaos", harv);
  ASSERT_FALSE(farm.install_task({"chaos", kReporterAll, {"Reporter"}, {}})
                   .empty());
  net::NodeId leaf0 = farm.fabric().leaf_switches[0];

  sim::FaultPlan plan;
  plan.poll_loss(at(500), Duration::sec(2), leaf0, 0.9);
  ChaosController chaos(farm, std::move(plan));
  std::string dump = ::testing::TempDir() + "granary_chaos_flight.json";
  chaos.record_flight_to(dump);
  chaos.arm();
  farm.run_for(Duration::ms(3000));

  telemetry::Hub& tel = farm.telemetry();
  // The injected fault shows up as a chaos.<kind> mark carrying its target.
  auto start = tel.query().label("chaos.poll-loss-start").first();
  ASSERT_TRUE(start.has_value());
  EXPECT_EQ(start->at, at(500));
  EXPECT_DOUBLE_EQ(start->value, static_cast<double>(leaf0));

  // Fault → symptom ordering: no poll timed out before the loss window
  // opened, and the first timeout follows the mark in virtual time.
  std::string soil_name = farm.topology().node(leaf0).name;
  auto first_timeout =
      tel.query().label("soil." + soil_name + ".poll_timeouts").first();
  ASSERT_TRUE(first_timeout.has_value());
  EXPECT_GT(first_timeout->at, start->at);

  // Each applied fault rewrote the flight dump; the file on disk is the
  // chrome trace for the *last* fault (the loss window closing).
  EXPECT_EQ(tel.flight().dumps(), 2u);
  std::ifstream in(dump);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.str().find("chaos.poll-loss-stop"), std::string::npos);
  std::remove(dump.c_str());
}

// --- Scarecrow acceptance: fault → alert latency -----------------------------

TEST(ChaosTest, SwitchCrashFiresStalenessAlertAndResolvesAfterReboot) {
  FarmSystem farm(FarmSystemConfig{
      .topology = {.spines = 1, .leaves = 2, .hosts_per_leaf = 2}});
  CollectingHarvester harv(farm.engine(), "chaos");
  farm.bus().attach_harvester("chaos", harv);
  ASSERT_FALSE(farm.install_task({"chaos", kReporterAll, {"Reporter"}, {}})
                   .empty());
  net::NodeId victim = farm.fabric().leaf_switches[0];
  const std::string metric =
      "soil." + farm.topology().node(victim).name + ".poll_deliveries";

  sim::FaultPlan plan;
  plan.crash_reboot(at(1000), Duration::sec(3), victim);  // back up at 4 s
  ChaosController chaos(farm, std::move(plan));
  chaos.arm();

  farm.run_for(Duration::ms(2500));
  telemetry::Hub& tel = farm.telemetry();
  // The victim's soil went silent: its poll-staleness instance fired, and
  // the transition rode the event store as a mark. Detection latency is
  // bounded: the 1 s staleness threshold, plus one 100 ms evaluation
  // period, plus the sub-threshold slack between the last delivery and the
  // crash instant.
  auto firing = tel.query().label("alert.poll-staleness.firing").first();
  ASSERT_TRUE(firing.has_value());
  EXPECT_GT(firing->at, at(1000 + 800));
  EXPECT_LE(firing->at, at(1000 + 1500));
  const telemetry::Alert* a =
      farm.scarecrow().alerts().find("poll-staleness", metric);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->state, telemetry::AlertState::kFiring);
  // A firing alert plus a dead switch drag the fabric health below 1.
  EXPECT_LT(farm.scarecrow().fabric_score(), 1.0);
  EXPECT_TRUE(farm.scarecrow().alerts().any_firing("soil.**"));

  // Reboot at 4 s: recovery is detected, the place-all reporter returns to
  // the victim, deliveries resume, and the alert resolves.
  farm.run_for(Duration::ms(5500));  // now at 8 s
  a = farm.scarecrow().alerts().find("poll-staleness", metric);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->state, telemetry::AlertState::kResolved);
  auto resolved = tel.query().label("alert.poll-staleness.resolved").first();
  ASSERT_TRUE(resolved.has_value());
  EXPECT_GT(resolved->at, at(4000));
  EXPECT_LE(resolved->at, at(5000));  // ping + redeploy + poll + one eval
  EXPECT_EQ(farm.scarecrow().alerts().firing_count(), 0u);
  EXPECT_DOUBLE_EQ(farm.scarecrow().fabric_score(), 1.0);
}

TEST(ChaosTest, PollLossBurstFiresTimeoutRateAlertAndResolves) {
  FarmSystem farm(FarmSystemConfig{
      .topology = {.spines = 1, .leaves = 2, .hosts_per_leaf = 2}});
  CollectingHarvester harv(farm.engine(), "chaos");
  farm.bus().attach_harvester("chaos", harv);
  ASSERT_FALSE(farm.install_task({"chaos", kReporterAll, {"Reporter"}, {}})
                   .empty());
  net::NodeId leaf0 = farm.fabric().leaf_switches[0];
  const std::string metric =
      "soil." + farm.topology().node(leaf0).name + ".poll_timeouts";

  sim::FaultPlan plan;
  // 90% poll loss for 2 s: ~18 timeouts/s against the 2/s SLO.
  plan.poll_loss(at(500), Duration::sec(2), leaf0, 0.9);
  ChaosController chaos(farm, std::move(plan));
  chaos.arm();
  farm.run_for(Duration::sec(4));

  telemetry::Hub& tel = farm.telemetry();
  auto firing = tel.query().label("alert.poll-timeouts.firing").first();
  ASSERT_TRUE(firing.has_value());
  // Fires inside the loss window: first timeouts need a poll interval plus
  // the poll timeout to accumulate, then the 100 ms hold must elapse.
  EXPECT_GT(firing->at, at(500));
  EXPECT_LE(firing->at, at(2000));
  // ...and resolves once the channel is clean and stragglers drained.
  auto resolved = tel.query().label("alert.poll-timeouts.resolved").first();
  ASSERT_TRUE(resolved.has_value());
  EXPECT_GT(resolved->at, firing->at);
  EXPECT_LE(resolved->at, at(3500));
  const telemetry::Alert* a =
      farm.scarecrow().alerts().find("poll-timeouts", metric);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->state, telemetry::AlertState::kResolved);
  // Lossy polls are not a dead switch: the seeder never declared failure.
  EXPECT_FALSE(farm.seeder().node_failed(leaf0));
}

TEST(ChaosTest, TransientCrashIsRecordedWithoutDeclaringFailure) {
  // A die+recover inside one heartbeat window used to vanish from the
  // detection accounting entirely; now the recovered ping records the miss
  // streak as a transient, visible to flight dumps.
  FarmSystem farm(FarmSystemConfig{
      .topology = {.spines = 1, .leaves = 2, .hosts_per_leaf = 2}});
  CollectingHarvester harv(farm.engine(), "chaos");
  farm.bus().attach_harvester("chaos", harv);
  ASSERT_FALSE(farm.install_task({"chaos", kReporterAll, {"Reporter"}, {}})
                   .empty());
  net::NodeId victim = farm.fabric().leaf_switches[0];

  sim::FaultPlan plan;
  // Down for 300 ms — at most two missed 250 ms heartbeats, under the
  // 3-miss failure limit.
  plan.crash_reboot(at(1000), Duration::ms(300), victim);
  ChaosController chaos(farm, std::move(plan));
  chaos.arm();
  farm.run_for(Duration::sec(3));

  EXPECT_FALSE(farm.seeder().node_failed(victim));
  EXPECT_EQ(farm.seeder().failures_detected(), 0u);
  EXPECT_GE(farm.seeder().transients(), 1u);
  EXPECT_EQ(farm.seeder().miss_streak(victim), 0);  // streak cleared again
  telemetry::Hub& tel = farm.telemetry();
  // The aggregate counts transients; the mark row carries the streak
  // depth at recovery.
  EXPECT_DOUBLE_EQ(tel.query().label("seeder.transients").total(),
                   static_cast<double>(farm.seeder().transients()));
  auto mark = tel.query()
                  .label("seeder.transients")
                  .kind(telemetry::EventKind::kMark)
                  .first();
  ASSERT_TRUE(mark.has_value());
  EXPECT_GT(mark->at, at(1300));
  EXPECT_GE(mark->value, 1.0);
  // The misses themselves were marked while the switch was dark.
  EXPECT_GE(tel.query().label("seeder.heartbeat_miss").count(), 1u);
}

// A seed whose utility grows with vCPU: the per-switch LP grants it every
// core the switch has left, so each deploy and each reallocation leaves
// its soil more than 90% allocated.
constexpr const char* kHungryAll = R"ALM(
machine Hungry {
  place all;
  long n = 0;
  state run {
    util (res) { if (res.vCPU >= 0.1) then { return res.vCPU; } }
    when (enter) do { n = n + 1; }
  }
}
)ALM";

// Needs one core and gains nothing from more: beside kHungryAll it holds
// exactly one core per switch, which its removal hands back.
constexpr const char* kOneCoreAll = R"ALM(
machine OneCore {
  place all;
  state run {
    util (res) { if (res.vCPU >= 1) then { return 1; } }
  }
}
)ALM";

// Every control event runs exactly one placement pass: installing and
// removing a task, the dead-switch verdict and the reboot recovery. The
// seeder's own grants fill every soil, and a removal reallocates the
// surviving seeds; none of that may start a second pass, and a quiet
// window starts none.
TEST(ChaosTest, EachControlEventRunsOnePlacementPass) {
  FarmSystem farm(FarmSystemConfig{
      .topology = {.spines = 2, .leaves = 2, .hosts_per_leaf = 1}});
  Seeder& seeder = farm.seeder();
  double seen = 0;
  auto new_passes = [&] {
    const double total =
        farm.telemetry().query().label("seeder.reoptimizes").total();
    const double n = total - seen;
    seen = total;
    return n;
  };

  auto hungry = farm.install_task({.name = "hungry", .source = kHungryAll});
  ASSERT_EQ(hungry.size(), farm.topology().switches().size());
  EXPECT_EQ(new_passes(), 1) << "install";
  ASSERT_EQ(farm.install_task({.name = "one", .source = kOneCoreAll}).size(),
            hungry.size());
  EXPECT_EQ(new_passes(), 1) << "install beside a running task";

  Soil& soil = farm.soil(hosting_node(farm, hungry[0]));
  const double shared = soil.allocation(*soil.find(hungry[0])).vCPU;
  seeder.remove_task("one");
  EXPECT_EQ(new_passes(), 1) << "removal";
  // The removal reallocated: the hungry seed took the freed core.
  EXPECT_GT(soil.allocation(*soil.find(hungry[0])).vCPU, shared);

  const net::NodeId victim = farm.fabric().leaf_switches[1];
  sim::FaultPlan plan;
  plan.crash_reboot(at(500), Duration::sec(2), victim);  // back up at 2.5 s
  ChaosController chaos(farm, std::move(plan));
  chaos.arm();
  farm.run_for(Duration::ms(2000));
  ASSERT_TRUE(seeder.node_failed(victim));
  EXPECT_EQ(new_passes(), 1) << "crash verdict";
  farm.run_for(Duration::ms(2000));
  ASSERT_FALSE(seeder.node_failed(victim));
  EXPECT_EQ(new_passes(), 1) << "reboot recovery";
  EXPECT_EQ(seeder.seeds_of_task("hungry").size(), hungry.size());

  farm.run_for(Duration::sec(1));
  EXPECT_EQ(new_passes(), 0) << "quiet window";
}

}  // namespace
}  // namespace farm::core
