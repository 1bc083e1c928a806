// Winnow — abstract interpretation cost and optimizer payoff across every
// shipped seed (DESIGN.md §15).
//
// Per machine: wall-clock analysis time, fixpoint iterations / widenings,
// the syntactic (RS-gate) TCAM + PCIe estimates vs the Winnow-refined
// estimates of the optimized machine, and a replay-equivalence verdict.
// Gates (exit 1): every analysis must converge, every optimized machine
// must replay bit-identically inside its envelope, and at least three
// shipped seeds must show a strict TCAM reduction — the bounded-loop
// extension programs exist precisely to keep that payoff visible.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "almanac/compile.h"
#include "almanac/opt/optimize.h"
#include "almanac/opt/replay.h"
#include "almanac/parser.h"
#include "almanac/verify/estimate.h"
#include "bench_json.h"
#include "farm/usecases.h"

using namespace farm;

int main() {
  bench::BenchJson json("winnow");
  std::printf("Winnow — analysis cost and optimizer payoff per shipped seed\n\n");
  std::printf("%-28s | %8s %6s %6s | %7s %7s %6s | %s\n", "machine",
              "anal_us", "iters", "widen", "tcam_b", "tcam_a", "red%",
              "replay");

  std::vector<core::UseCase> all = core::all_use_cases();
  for (const auto& ext : core::extension_use_cases()) all.push_back(ext);

  almanac::verify::VerifyOptions vopts;
  bool ok = true;
  int reduced = 0;
  for (const auto& uc : all) {
    almanac::Program program;
    try {
      program = almanac::parse_program(uc.source);
    } catch (const std::exception& e) {
      std::printf("%-28s | parse error: %s\n", uc.name.c_str(), e.what());
      ok = false;
      continue;
    }
    for (const auto& name : uc.machines) {
      auto cm = almanac::compile_machine(program, name);
      auto t0 = std::chrono::steady_clock::now();
      auto opt = almanac::opt::optimize_machine(cm);
      auto t1 = std::chrono::steady_clock::now();
      double us =
          std::chrono::duration<double, std::micro>(t1 - t0).count();

      if (!opt.analysis.converged() || !opt.stats.applied) ok = false;

      auto before = almanac::verify::estimate_resources(cm, vopts, nullptr);
      auto facts = almanac::verify::absint::analyze_machine(opt.machine);
      auto after =
          almanac::verify::estimate_resources(opt.machine, vopts, &facts);
      double red = before.tcam_rules > 0
                       ? 100.0 * (before.tcam_rules - after.tcam_rules) /
                             before.tcam_rules
                       : 0.0;
      if (after.tcam_rules < before.tcam_rules) ++reduced;

      auto report =
          almanac::opt::replay_compare(cm, opt.machine, opt.analysis);
      if (!report.ok()) ok = false;

      std::printf("%-28s | %8.0f %6d %6d | %7.0f %7.0f %5.1f%% | %s\n",
                  name.c_str(), us, opt.analysis.iterations,
                  opt.analysis.widen_applications, before.tcam_rules,
                  after.tcam_rules, red,
                  report.ok() ? "identical" : report.divergence.c_str());

      std::vector<bench::BenchParam> p{bench::param("machine", name),
                                       bench::param("use_case", uc.name)};
      json.record("analysis_us", us, "us", p);
      json.record("iterations", opt.analysis.iterations, "count", p);
      json.record("widenings", opt.analysis.widen_applications, "count", p);
      json.record("tcam_before", before.tcam_rules, "rules", p);
      json.record("tcam_after", after.tcam_rules, "rules", p);
      json.record("tcam_reduction", red, "%", p);
      if (before.pcie_mbps)
        json.record("pcie_before", *before.pcie_mbps, "Mbps", p);
      if (after.pcie_mbps)
        json.record("pcie_after", *after.pcie_mbps, "Mbps", p);
      json.record("replay_identical", report.ok() ? 1 : 0, "bool", p);
      json.record("rewrites", opt.stats.total(), "count", p);
    }
  }

  json.record("machines_with_tcam_reduction", reduced, "count", {});
  std::printf("\n%d machine(s) with a strict TCAM reduction\n", reduced);
  if (reduced < 3) {
    std::printf("FAIL: expected >= 3 machines with TCAM reduction\n");
    ok = false;
  }
  if (!ok) std::printf("FAIL: see above\n");
  return ok ? 0 : 1;
}
