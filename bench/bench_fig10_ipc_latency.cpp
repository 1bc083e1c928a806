// Fig. 10: soil↔seed communication latency — shared ring buffer (seeds as
// soil threads) vs. gRPC-style IPC (seeds as processes) — as the number of
// deployed seeds grows.
//
// Paper: gRPC latency grows linearly with deployed seed count and becomes
// the bottleneck; the shared buffer stays at a marginal constant overhead
// even with 150 seeds. (This motivated FARM's default execution model.)
#include <cstdio>
#include <string>

#include "bench_json.h"

#include "farm/system.h"
#include "runtime/soil.h"

using namespace farm;
using sim::Duration;

namespace {

constexpr const char* kPollTask = R"ALM(
machine P {
  place all;
  poll s = Poll { .ival = 0.01, .what = port ANY };
  state run {
    util (res) { if (res.vCPU >= 0.001) then { return res.vCPU; } }
    when (s as st) do { }
  }
}
)ALM";

double mean_delivery_us(int seeds, bool threads) {
  sim::Engine engine;
  asic::SwitchConfig cfg;
  cfg.n_ifaces = 48;
  cfg.cpu_cores = 8;
  asic::SwitchChassis sw(engine, 0, "sw", cfg, 0);
  runtime::SoilConfig scfg;
  scfg.seeds_as_threads = threads;
  runtime::Soil soil(engine, sw, scfg);
  auto image = runtime::MachineImage::from_source(kPollTask, "P");
  for (int i = 0; i < seeds; ++i)
    soil.deploy({"t" + std::to_string(i), "P", 0}, image, {});
  engine.run_for(Duration::sec(1));
  return soil.mean_delivery_latency() * 1e6;
}

}  // namespace

int main() {
  std::printf("Fig. 10 — soil→seed event delivery latency (µs), shared "
              "buffer (threads) vs gRPC (processes)\n\n");
  std::printf("%6s %18s %14s\n", "seeds", "shared buffer(us)", "gRPC(us)");
  double shared_first = 0, shared_last = 0;
  double rpc_first = 0, rpc_last = 0;
  bench::BenchJson out("fig10_ipc_latency");
  for (int seeds : {1, 25, 50, 75, 100, 125, 150}) {
    double shared = mean_delivery_us(seeds, true);
    double rpc = mean_delivery_us(seeds, false);
    std::printf("%6d %18.1f %14.1f\n", seeds, shared, rpc);
    out.record("delivery_latency", shared, "us",
               {bench::param("seeds", seeds),
                bench::param("transport", "shared-buffer")});
    out.record("delivery_latency", rpc, "us",
               {bench::param("seeds", seeds),
                bench::param("transport", "grpc")});
    if (shared_first == 0) {
      shared_first = shared;
      rpc_first = rpc;
    }
    shared_last = shared;
    rpc_last = rpc;
  }
  // Shape: shared buffer roughly flat; gRPC grows linearly and dominates.
  bool shape = shared_last < 3 * shared_first + 5 &&
               rpc_last > 2 * rpc_first && rpc_last > 10 * shared_last;
  std::printf("\nshared buffer flat, gRPC linear in seed count: %s\n",
              shape ? "HOLDS" : "VIOLATED");
  return shape ? 0 : 1;
}
