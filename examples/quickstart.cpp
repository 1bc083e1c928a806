// Quickstart: deploy the heavy-hitter task on a simulated leaf-spine
// fabric, drive an elephant flow through it, and watch FARM detect and
// mitigate it on-switch within milliseconds.
//
//   $ ./quickstart
#include <cstdio>

#include "farm/harvesters.h"
#include "farm/system.h"
#include "farm/usecases.h"

using namespace farm;

int main() {
  // 1. A 2×4 leaf-spine fabric with 4 hosts per rack (all simulated:
  //    ASIC + TCAM + PCIe bus + management CPU per switch).
  core::FarmSystemConfig config;
  config.topology = {.spines = 2, .leaves = 4, .hosts_per_leaf = 4};
  core::FarmSystem farm(config);

  // 2. A harvester — the task's centralized coordinator. For HH it adapts
  //    the global threshold; here we mostly read its report log.
  core::HhHarvester harvester(farm.engine(), "hh");
  farm.bus().attach_harvester("hh", harvester);

  // 3. Install the heavy-hitter task from its Almanac source. `place all`
  //    puts one seed on every switch; externals bind the detection
  //    threshold and the local reaction (rate-limit hitters to 1 Mbps).
  const core::UseCase& hh = core::use_case("Heavy hitter (HH)");
  farm.install_task({
      .name = "hh",
      .source = hh.source,
      .machines = hh.machines,
      .externals =
          {{"threshold", almanac::Value(std::int64_t{200'000})},
           {"hitterAction",
            almanac::Value(almanac::ActionValue{asic::RuleAction::kRateLimit,
                                                1e6})}},
  });
  std::printf("deployed %zu seeds across %zu switches\n",
              farm.seeder().seeds_of_task("hh").size(),
              farm.topology().switches().size());

  // 4. Traffic: one 800 Mbps elephant between two racks.
  net::FlowSchedule schedule;
  net::FlowSpec elephant;
  elephant.key = {
      *farm.topology().node(farm.fabric().hosts_by_leaf[0][0]).address,
      *farm.topology().node(farm.fabric().hosts_by_leaf[2][0]).address,
      40000, 443, net::Proto::kTcp};
  elephant.rate_bps = 800e6;
  elephant.packet_bytes = 1400;
  schedule.add_forever(sim::TimePoint::origin(), elephant);
  farm.load_traffic(std::move(schedule));

  // 5. Run one simulated second.
  farm.run_for(sim::Duration::sec(1));

  // 6. What happened?
  std::printf("harvester received %zu hitter report(s)\n",
              harvester.reports.size());
  if (!harvester.reports.empty())
    std::printf("first report at t=%.3f ms (flow started at t=0)\n",
                harvester.report_times.front().seconds() * 1000);
  int reactions = 0;
  for (auto n : farm.topology().switches())
    for (const auto& rule : farm.chassis(n).tcam().rules())
      if (rule.action == asic::RuleAction::kRateLimit) {
        std::printf("switch %-7s rate-limits %s\n",
                    farm.topology().node(n).name.c_str(),
                    rule.pattern.to_string().c_str());
        ++reactions;
      }
  std::printf("%d local reaction(s) installed — no controller round-trip "
              "involved\n",
              reactions);
  std::printf("control-plane bytes to central components: %llu\n",
              static_cast<unsigned long long>(farm.bus().upstream_bytes()));
  return harvester.reports.empty() ? 1 : 0;
}
