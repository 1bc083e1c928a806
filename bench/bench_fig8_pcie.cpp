// Fig. 8: the PCIe poll channel congests orders of magnitude before the
// ASIC does — the bottleneck motivating the soil's polling aggregation.
//
// Seeds polling all 48 port counters at 10 ms are added one by one,
// WITHOUT aggregation (every seed issues its own PCIe transfer). We report
// the bus utilization and backlog alongside the ASIC's utilization under a
// full traffic load; with aggregation enabled, the same seed counts cost a
// single transfer per interval.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_json.h"

#include "farm/system.h"
#include "runtime/soil.h"
#include "telemetry/hub.h"

using namespace farm;
using sim::Duration;

namespace {

constexpr const char* kPollTask = R"ALM(
machine P {
  place all;
  poll s = Poll { .ival = 0.01, .what = port ANY };
  state run {
    util (res) { if (res.vCPU >= 0.01) then { return res.vCPU; } }
    when (s as st) do { }
  }
}
)ALM";

struct Row {
  double pcie_util;
  double backlog_ms;
  std::uint64_t requests;
};

Row run(int seeds, bool aggregate) {
  sim::Engine engine;
  asic::SwitchConfig cfg;
  cfg.n_ifaces = 48;
  cfg.cpu_cores = 8;
  asic::SwitchChassis sw(engine, 0, "sw", cfg, 0);
  runtime::SoilConfig scfg;
  scfg.aggregate_polls = aggregate;
  runtime::Soil soil(engine, sw, scfg);
  auto image = runtime::MachineImage::from_source(kPollTask, "P");
  for (int i = 0; i < seeds; ++i)
    soil.deploy({"t" + std::to_string(i), "P", 0}, image, {});
  engine.run_for(Duration::sec(1));

  // Bus utilization and backlog from Granary: the bus records its
  // cumulative busy time only as the "pcie.sw.busy_ns" counter and its
  // horizon as the "pcie.sw.free_at_ns" gauge. Busy time that lies past
  // now is queued work, not elapsed; integer nanosecond counts round-trip
  // through doubles exactly.
  telemetry::Hub& tel = engine.telemetry();
  auto busy_ns = static_cast<std::int64_t>(
      tel.query().label("pcie.sw.busy_ns").total());
  auto free_at_ns = static_cast<std::int64_t>(
      tel.query().label("pcie.sw.free_at_ns").total());
  std::int64_t now_ns = engine.now().count_ns();
  std::int64_t backlog_ns =
      free_at_ns > now_ns ? free_at_ns - now_ns : 0;
  double elapsed = engine.now().seconds();
  double busy = static_cast<double>(busy_ns) / 1e9 -
                static_cast<double>(backlog_ns) / 1e9;
  double util =
      elapsed <= 0 ? 0 : std::clamp(busy / elapsed, 0.0, 1.0);
  return {util, static_cast<double>(backlog_ns) / 1e6,
          static_cast<std::uint64_t>(
              tel.query().label("soil.sw.poll_requests").total())};
}

}  // namespace

int main() {
  std::printf("Fig. 8 — PCIe poll channel vs ASIC (48 ports @ 10 ms polls; "
              "PCIe %g Mbps vs ASIC %g Gbps = 1:%d)\n\n",
              sim::cost::kPciePollBandwidthBps / 1e6,
              sim::cost::kAsicBandwidthBps / 1e9,
              static_cast<int>(sim::cost::kAsicBandwidthBps /
                               sim::cost::kPciePollBandwidthBps));
  std::printf("%6s | %14s %12s | %14s %12s\n", "seeds", "util%(no agg)",
              "backlog(ms)", "util%(agg)", "backlog(ms)");
  bench::BenchJson out("fig8_pcie");
  bool congested_without = false, fine_with = true;
  for (int seeds : {1, 2, 4, 8, 16, 32}) {
    Row no_agg = run(seeds, false);
    Row agg = run(seeds, true);
    std::printf("%6d | %14.1f %12.1f | %14.1f %12.1f\n", seeds,
                100 * no_agg.pcie_util, no_agg.backlog_ms,
                100 * agg.pcie_util, agg.backlog_ms);
    for (auto [mode, row] : {std::pair<const char*, const Row&>{"none", no_agg},
                             {"aggregated", agg}}) {
      std::vector<bench::BenchParam> params = {
          bench::param("seeds", seeds), bench::param("aggregation", mode)};
      out.record("pcie_utilization", 100 * row.pcie_util, "%", params);
      out.record("pcie_backlog", row.backlog_ms, "ms", params);
      out.record("poll_requests", static_cast<double>(row.requests), "count",
                 params);
    }
    if (seeds >= 8 && no_agg.backlog_ms > 100) congested_without = true;
    if (agg.backlog_ms > 100) fine_with = false;
  }
  // One 48-entry poll stream @10 ms needs 48·64·8·100 = 2.46 Mbps — well
  // inside the 8 Mbps channel; four independent streams already exceed it.
  bool shape = congested_without && fine_with;
  std::printf("\nwithout aggregation the bus collapses as seeds multiply; "
              "with aggregation the cost is one flat stream: %s\n",
              shape ? "HOLDS" : "VIOLATED");
  return shape ? 0 : 1;
}
