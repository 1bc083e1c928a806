// Fleet monitoring: every Table I use case deployed side-by-side — the
// management scenario the paper's placement optimizer exists for.
//
// Installs all 17 use cases on a 20-switch fabric (the paper's production
// cluster size), replays a mixed workload containing several of the
// anomalies, and prints a per-task summary plus the placement statistics
// (seeds per switch, polling aggregation effect, optimizer runtime).
//
//   $ ./fleet_monitoring
#include <cstdio>
#include <memory>

#include "farm/harvesters.h"
#include "farm/system.h"
#include "farm/usecases.h"
#include "net/traffic.h"

using namespace farm;

int main() {
  core::FarmSystemConfig config;
  config.topology = {.spines = 4, .leaves = 16, .hosts_per_leaf = 4};
  config.switch_config.cpu_cores = 8;
  core::FarmSystem farm(config);
  std::printf("fabric: %zu switches, %zu hosts\n",
              farm.topology().switches().size(),
              farm.topology().hosts().size());

  // One harvester per task.
  std::vector<std::unique_ptr<core::CollectingHarvester>> harvesters;
  std::vector<std::string> names;
  for (const auto& uc : core::all_use_cases()) {
    std::string task = "t" + std::to_string(harvesters.size());
    harvesters.push_back(
        std::make_unique<core::CollectingHarvester>(farm.engine(), task));
    farm.bus().attach_harvester(task, *harvesters.back());
    auto ids = farm.install_task({task, uc.source, uc.machines, {}});
    names.push_back(uc.name);
    std::printf("  installed %-22s → %3zu seeds\n", uc.name.c_str(),
                ids.size());
  }
  const auto& placement = farm.seeder().last_placement();
  std::printf("placement: %zu seeds, MU=%.1f, solved in %.3f s (%llu LPs)\n",
              placement.placements.size(), placement.total_utility,
              placement.solve_seconds,
              static_cast<unsigned long long>(placement.lp_solves));

  // Mixed workload: heavy hitters + an SSH brute force + a port scan.
  util::Rng rng(42);
  auto schedule = net::heavy_hitter_workload(farm.topology(), rng, 0.05,
                                             600e6, sim::Duration::sec(30),
                                             sim::Duration::sec(5));
  auto attacker = *farm.topology()
                       .node(farm.fabric().hosts_by_leaf[0][0])
                       .address;
  auto target1 =
      *farm.topology().node(farm.fabric().hosts_by_leaf[8][0]).address;
  schedule.append(net::ssh_brute_force(attacker, target1, 150,
                                       sim::Duration::ms(25),
                                       sim::TimePoint::origin() +
                                           sim::Duration::sec(1)));
  schedule.append(net::port_scan(attacker, target1, 2000, 120, 1e5,
                                 sim::TimePoint::origin() + sim::Duration::sec(2),
                                 sim::Duration::sec(2)));
  farm.load_traffic(std::move(schedule));
  farm.run_for(sim::Duration::sec(5));

  std::printf("\n%-24s %8s\n", "task", "reports");
  std::size_t total_reports = 0;
  for (std::size_t i = 0; i < harvesters.size(); ++i) {
    if (harvesters[i]->count() == 0) continue;
    std::printf("%-24s %8zu\n", names[i].c_str(), harvesters[i]->count());
    total_reports += harvesters[i]->count();
  }

  // Soil-level effectiveness: polling aggregation across co-located tasks.
  std::uint64_t requests = 0, deliveries = 0;
  for (auto n : farm.topology().switches()) {
    requests += farm.soil(n).poll_requests_issued();
    deliveries += farm.soil(n).poll_deliveries();
  }
  std::printf("\npolling: %llu PCIe requests served %llu deliveries "
              "(aggregation factor %.1fx)\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(deliveries),
              requests ? static_cast<double>(deliveries) /
                             static_cast<double>(requests)
                       : 0.0);
  std::printf("control-plane upstream: %.2f MB over 5 s for %zu tasks\n",
              static_cast<double>(farm.bus().upstream_bytes()) / 1e6,
              harvesters.size());
  return total_reports > 0 ? 0 : 1;
}
