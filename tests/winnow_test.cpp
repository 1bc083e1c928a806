// Winnow — abstract interpretation engine + analysis-driven optimizer
// (DESIGN.md §15).
//
// Covers: interval/constancy transfer facts on hand-written machines,
// proven loop trip bounds and the refined resource estimate, each AI00x
// diagnostic through the full verifier, every optimizer rewrite with the
// replay harness attesting bit-identical behavior, the cross-pass
// diagnostic tie-break, and optimize+replay over every shipped use case.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "almanac/opt/optimize.h"
#include "almanac/opt/replay.h"
#include "almanac/parser.h"
#include "almanac/verify/estimate.h"
#include "almanac/verify/verify.h"
#include "farm/usecases.h"

namespace farm {
namespace {

using almanac::verify::Diagnostic;
using almanac::verify::Severity;
using almanac::verify::absint::AbsintOptions;
using almanac::verify::absint::AbsVal;
using almanac::verify::absint::Analysis;
using almanac::verify::absint::analyze_machine;

almanac::Program parse(const std::string& src) {
  return almanac::parse_program(src);
}

std::vector<Diagnostic> lint(const std::string& src) {
  auto program = parse(src);
  almanac::verify::VerifyOptions opts;
  return almanac::verify::verify_program(program, opts);
}

bool has_code(const std::vector<Diagnostic>& ds, const std::string& code) {
  return std::any_of(ds.begin(), ds.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

// --- Engine facts ---------------------------------------------------------------

TEST(WinnowEngine, ConstantRegistersStayConstantAcrossStates) {
  auto program = parse(R"(
machine M {
  place all;
  time t = 1.0;
  long k = 7;
  long x = 0;
  state a {
    when (t as now) do { x = k + 1; transit b; }
  }
  state b {
    when (t as now) do { x = k * 2; transit a; }
  }
}
)");
  auto cm = almanac::compile_machine(program, "M");
  Analysis an = analyze_machine(cm);
  ASSERT_TRUE(an.converged());
  ASSERT_TRUE(an.reachable_states.count("a"));
  ASSERT_TRUE(an.reachable_states.count("b"));
  // `k` is never written: singleton {7} everywhere.
  for (const char* st : {"a", "b"}) {
    auto& env = an.state_entry.at(st);
    auto it = env.find("k");
    ASSERT_NE(it, env.end()) << st;
    EXPECT_TRUE(it->second.admits(almanac::Value(std::int64_t{7})));
    EXPECT_FALSE(it->second.admits(almanac::Value(std::int64_t{8})));
  }
  // `x` takes 0, 8, 14 — the envelope must admit all three.
  auto& xa = an.state_entry.at("a").at("x");
  for (std::int64_t v : {0, 8, 14})
    EXPECT_TRUE(xa.admits(almanac::Value(v))) << v;
}

TEST(WinnowEngine, ProvesCountingLoopTripBounds) {
  auto program = parse(R"(
machine M {
  place all;
  time t = 1.0;
  state s {
    when (t as now) do {
      long i = 0;
      while (i < 5) {
        addTCAMRule(iface_filter(i), action_count());
        i = i + 1;
      }
    }
  }
}
)");
  auto cm = almanac::compile_machine(program, "M");
  Analysis an = analyze_machine(cm);
  ASSERT_TRUE(an.converged());
  ASSERT_EQ(an.loop_bounds.size(), 1u);
  EXPECT_EQ(an.loop_bounds.begin()->second, 5);

  // The refined estimate scores the loop at 5 iterations; syntactically it
  // is scored at max_ifaces = 48.
  almanac::verify::VerifyOptions vopts;
  auto syntactic = almanac::verify::estimate_resources(cm, vopts, nullptr);
  auto refined = almanac::verify::estimate_resources(cm, vopts, &an);
  EXPECT_DOUBLE_EQ(syntactic.tcam_rules, 48);
  EXPECT_DOUBLE_EQ(refined.tcam_rules, 5);
  EXPECT_EQ(refined.loops_scored, 1);
  EXPECT_EQ(refined.loops_bounded, 1);
}

TEST(WinnowEngine, WideningTerminatesOnUnboundedCounter) {
  auto program = parse(R"(
machine M {
  place all;
  time t = 1.0;
  long n = 0;
  state s {
    when (t as now) do { n = n + 1; log("n" + n); }
  }
}
)");
  auto cm = almanac::compile_machine(program, "M");
  Analysis an = analyze_machine(cm);
  ASSERT_TRUE(an.converged());
  EXPECT_GT(an.widen_applications, 0);
  // Unbounded above but never negative.
  auto& nv = an.state_entry.at("s").at("n");
  EXPECT_TRUE(nv.admits(almanac::Value(std::int64_t{1000000})));
  EXPECT_FALSE(nv.admits(almanac::Value(std::int64_t{-1})));
}

TEST(WinnowEngine, PartialHandlerExecutionStaysInsideEnvelope) {
  // The division throws (EvalError) after `x` was already set to 3: the
  // machine scope freezes mid-handler, so the envelope must admit x = 3
  // even though the handler's final statement would have set x back to 0.
  auto program = parse(R"(
machine M {
  place all;
  time t = 1.0;
  long x = 0;
  long z = 0;
  state s {
    when (t as now) do {
      x = 3;
      z = 10 / z;
      x = 0;
    }
  }
}
)");
  auto cm = almanac::compile_machine(program, "M");
  Analysis an = analyze_machine(cm);
  ASSERT_TRUE(an.converged());
  EXPECT_TRUE(an.state_entry.at("s").at("x").admits(
      almanac::Value(std::int64_t{3})));
  EXPECT_FALSE(an.div_by_zero_nodes.empty());
}

// --- Diagnostics (full verifier) ------------------------------------------------

TEST(WinnowDiagnostics, AllFiveCodesFire) {
  EXPECT_TRUE(has_code(lint(R"(
machine A { place all; time t = 1.0;
  long big = 9000000000000000000;
  state s { when (t as now) do { log("x" + (big * 10)); } }
}
)"), "AI001"));
  EXPECT_TRUE(has_code(lint(R"(
machine A { place all; time t = 1.0;
  long d = 0;
  state s { when (t as now) do { log("x" + (10 / d)); } }
}
)"), "AI002"));
  EXPECT_TRUE(has_code(lint(R"(
machine A { place all; time t = 1.0;
  long m = 0;
  state s { when (t as now) do { if (m > 3) then { transit dead; } } }
  state dead { when (t as now) do { transit s; } }
}
)"), "AI003"));
  EXPECT_TRUE(has_code(lint(R"(
machine A { place all; time t = 1.0;
  long c = 5;
  state s { when (t as now) do { if (c < 100) then { log("y"); } } }
}
)"), "AI004"));
  EXPECT_TRUE(has_code(lint(R"(
machine A { place all; time t = 1.0;
  long shadow = 0;
  state s { when (t as now) do { shadow = shadow + 1; log("t"); } }
}
)"), "AI005"));
}

TEST(WinnowDiagnostics, CleanMachineStaysClean) {
  auto ds = lint(R"(
machine A {
  place all;
  poll p = Poll { .ival = 1.0, .what = port ANY };
  long seen = 0;
  state s {
    util (res) { return res.vCPU; }
    when (p as cur) do { seen = stats_size(cur); log("n" + seen); }
  }
}
)");
  for (const auto& d : ds)
    EXPECT_NE(d.code.substr(0, 2), "AI") << d.format("");
}

TEST(WinnowDiagnostics, CrossPassTieBreakIsStable) {
  // Same location, two passes: order must be (line, col, code, severity,
  // message), never insertion order.
  almanac::verify::DiagnosticSink a;
  almanac::SourceLoc loc{4, 1};
  a.report("SK003", Severity::kError, loc, "sketch over budget", "");
  a.report("RS001", Severity::kError, loc, "tcam overflow", "");
  auto sorted_a = a.take_sorted();

  almanac::verify::DiagnosticSink b;
  b.report("RS001", Severity::kError, loc, "tcam overflow", "");
  b.report("SK003", Severity::kError, loc, "sketch over budget", "");
  auto sorted_b = b.take_sorted();

  ASSERT_EQ(sorted_a.size(), 2u);
  ASSERT_EQ(sorted_b.size(), 2u);
  EXPECT_EQ(sorted_a[0].code, "RS001");
  EXPECT_EQ(sorted_b[0].code, "RS001");
  EXPECT_EQ(sorted_a[1].code, "SK003");
  EXPECT_EQ(sorted_b[1].code, "SK003");
}

// --- Optimizer ------------------------------------------------------------------

TEST(WinnowOptimizer, FoldsSplicesAndDeletesWithIdenticalReplay) {
  auto program = parse(R"(
machine M {
  place all;
  time t = 1.0;
  long k = 6;
  long shadow = 0;
  state s {
    when (t as now) do {
      shadow = k + 1;
      if (k < 100) then { log("lane " + (k * 7)); }
      while (k > 100) { log("never"); }
      if (k > 100) then { transit dead; }
    }
  }
  state dead {
    when (t as now) do { transit s; }
  }
}
)");
  auto cm = almanac::compile_machine(program, "M");
  auto opt = almanac::opt::optimize_machine(cm);
  ASSERT_TRUE(opt.stats.applied);
  EXPECT_GT(opt.stats.folded_consts, 0);   // k * 7 -> 42
  EXPECT_GT(opt.stats.pruned_ifs, 0);      // both ifs are const
  EXPECT_GT(opt.stats.deleted_loops, 0);   // while (k > 100)
  EXPECT_GT(opt.stats.removed_states, 0);  // dead
  // `shadow` is never read and unobservable; its store has a provably
  // non-throwing RHS, so both the store and the register disappear. (A
  // self-referential `shadow = shadow + 1` would be kept: the RHS could
  // overflow, and the raised error is observable behavior.)
  EXPECT_GT(opt.stats.removed_stores, 0);
  EXPECT_GT(opt.stats.removed_vars, 0);
  EXPECT_EQ(opt.machine.states.size(), cm.states.size() - 1);

  auto report = almanac::opt::replay_compare(cm, opt.machine, opt.analysis);
  EXPECT_TRUE(report.ok()) << report.divergence;
  EXPECT_GT(report.events_run, 0);
}

TEST(WinnowOptimizer, PreservesThrowingExpressionsVerbatim) {
  // 10 / z throws every run; the store must NOT be deleted even though
  // `bad` is unobservable — the raised error is observable behavior.
  auto program = parse(R"(
machine M {
  place all;
  time t = 1.0;
  long z = 0;
  long bad = 0;
  state s {
    when (t as now) do { bad = 10 / z; log("after"); }
  }
}
)");
  auto cm = almanac::compile_machine(program, "M");
  auto opt = almanac::opt::optimize_machine(cm);
  ASSERT_TRUE(opt.stats.applied);
  auto report = almanac::opt::replay_compare(cm, opt.machine, opt.analysis);
  EXPECT_TRUE(report.ok()) << report.divergence;
}

TEST(WinnowOptimizer, KeepsDynamicTransitTargetsAlive) {
  auto program = parse(R"(
machine M {
  place all;
  time t = 1.0;
  string next = "b";
  state a {
    when (t as now) do { transit next; }
  }
  state b {
    when (t as now) do { transit a; }
  }
}
)");
  auto cm = almanac::compile_machine(program, "M");
  auto opt = almanac::opt::optimize_machine(cm);
  ASSERT_TRUE(opt.stats.applied);
  EXPECT_EQ(opt.stats.removed_states, 0);
  EXPECT_EQ(opt.machine.states.size(), 2u);
  auto report = almanac::opt::replay_compare(cm, opt.machine, opt.analysis);
  EXPECT_TRUE(report.ok()) << report.divergence;
}

// --- Shipped programs -----------------------------------------------------------

TEST(WinnowShipped, EveryUseCaseOptimizesToIdenticalBehavior) {
  std::vector<core::UseCase> all = core::all_use_cases();
  for (const auto& ext : core::extension_use_cases()) all.push_back(ext);
  int machines = 0;
  for (const auto& uc : all) {
    auto program = parse(uc.source);
    for (const auto& name : uc.machines) {
      SCOPED_TRACE(uc.name + " / " + name);
      auto cm = almanac::compile_machine(program, name);
      auto opt = almanac::opt::optimize_machine(cm);
      EXPECT_TRUE(opt.stats.applied);
      auto report = almanac::opt::replay_compare(cm, opt.machine, opt.analysis);
      EXPECT_TRUE(report.ok()) << report.divergence;
      ++machines;
    }
  }
  EXPECT_GE(machines, 22);
}

TEST(WinnowShipped, BoundedLoopExtensionsShowTcamReduction) {
  almanac::verify::VerifyOptions vopts;
  int reduced = 0;
  for (const auto& uc : core::extension_use_cases()) {
    auto program = parse(uc.source);
    for (const auto& name : uc.machines) {
      auto cm = almanac::compile_machine(program, name);
      auto opt = almanac::opt::optimize_machine(cm);
      auto before = almanac::verify::estimate_resources(cm, vopts, nullptr);
      auto facts = analyze_machine(opt.machine);
      auto after =
          almanac::verify::estimate_resources(opt.machine, vopts, &facts);
      if (before.tcam_rules > after.tcam_rules) ++reduced;
    }
  }
  EXPECT_GE(reduced, 3);
}

}  // namespace
}  // namespace farm
