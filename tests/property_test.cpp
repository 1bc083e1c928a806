// Property-based test sweeps (parameterized gtest).
//
// Each suite checks an invariant over a randomized family of inputs:
//   - placement results always satisfy (C1)-(C4) and never overstate MU;
//   - filter canonicalization is semantics-preserving (a filter and its
//     DNF-canonicalized re-interpretation match the same packets);
//   - the DES engine is deterministic and order-correct for random
//     schedules;
//   - LP duality-style sanity: the simplex objective equals the recomputed
//     value and respects feasibility, across random instances;
//   - XML round-trips are stable for every shipped use case.
#include <gtest/gtest.h>

#include "almanac/opt/optimize.h"
#include "almanac/opt/replay.h"
#include "almanac/xml.h"
#include "farm/chaos.h"
#include "farm/harvesters.h"
#include "farm/usecases.h"
#include "lp/simplex.h"
#include "net/filter.h"
#include "net/sketch.h"
#include "net/traffic.h"
#include "runtime/disketch.h"
#include "placement/generator.h"
#include "placement/heuristic.h"
#include "placement/milp_placement.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "util/rng.h"
#include "winnow_gen.h"

namespace farm {
namespace {

// --- Placement invariants over random instances --------------------------------

class PlacementProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlacementProperty, HeuristicAlwaysValidAndConsistent) {
  placement::GeneratorSpec spec;
  spec.n_switches = 12 + static_cast<int>(GetParam() % 5) * 4;
  spec.n_tasks = 4 + static_cast<int>(GetParam() % 3);
  spec.seeds_per_task = 8 + static_cast<int>(GetParam() % 7) * 3;
  spec.seed = GetParam();
  auto problem = placement::generate_problem(spec);
  auto result = placement::solve_heuristic(problem);
  auto errors = placement::validate_placement(problem, result);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
  // Reported utility must equal utility recomputed from allocations.
  EXPECT_NEAR(result.total_utility,
              placement::recompute_utility(problem, result),
              1e-5 * std::max(1.0, result.total_utility));
}

TEST_P(PlacementProperty, MigrationFromRandomCurrentPlacementStaysValid) {
  placement::GeneratorSpec spec;
  spec.n_switches = 10;
  spec.n_tasks = 4;
  spec.seeds_per_task = 8;
  spec.seed = GetParam();
  auto problem = placement::generate_problem(spec);
  // Random (feasible-ish) current placement.
  util::Rng rng(GetParam() * 13 + 1);
  for (const auto& s : problem.seeds) {
    if (!rng.next_bool(0.7)) continue;
    auto n = s.candidates[rng.next_below(s.candidates.size())];
    problem.current_placement[s.id] = n;
    problem.current_alloc[s.id] =
        almanac::ResourcesValue{0.2, 32, 4, 0.2};
  }
  auto result = placement::solve_heuristic(problem);
  auto errors = placement::validate_placement(problem, result);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlacementProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- Filter canonicalization ---------------------------------------------------

class FilterProperty : public ::testing::TestWithParam<std::uint64_t> {};

net::Filter random_filter(util::Rng& rng, int depth) {
  if (depth == 0 || rng.next_bool(0.4)) {
    switch (rng.next_below(5)) {
      case 0:
        return net::Filter::src_ip(net::Prefix(
            net::Ipv4(10, static_cast<std::uint8_t>(rng.next_below(4)), 0, 0),
            16));
      case 1:
        return net::Filter::dst_ip(net::Prefix(
            net::Ipv4(10, static_cast<std::uint8_t>(rng.next_below(4)), 0, 0),
            16));
      case 2:
        return net::Filter::l4_port(
            static_cast<std::uint16_t>(20 + rng.next_below(5)));
      case 3:
        return net::Filter::proto(rng.next_bool(0.5) ? net::Proto::kTcp
                                                     : net::Proto::kUdp);
      default:
        return net::Filter{};
    }
  }
  switch (rng.next_below(3)) {
    case 0:
      return net::Filter::conj(random_filter(rng, depth - 1),
                               random_filter(rng, depth - 1));
    case 1:
      return net::Filter::disj(random_filter(rng, depth - 1),
                               random_filter(rng, depth - 1));
    default:
      return net::Filter::negate(random_filter(rng, depth - 1));
  }
}

net::PacketHeader random_header(util::Rng& rng) {
  return {net::Ipv4(10, static_cast<std::uint8_t>(rng.next_below(4)),
                    static_cast<std::uint8_t>(rng.next_below(4)), 1),
          net::Ipv4(10, static_cast<std::uint8_t>(rng.next_below(4)),
                    static_cast<std::uint8_t>(rng.next_below(4)), 1),
          static_cast<std::uint16_t>(rng.next_below(40)),
          static_cast<std::uint16_t>(20 + rng.next_below(8)),
          rng.next_bool(0.5) ? net::Proto::kTcp : net::Proto::kUdp,
          {},
          512};
}

TEST_P(FilterProperty, EqualCanonicalKeysImplyEqualSemantics) {
  util::Rng rng(GetParam());
  auto f = random_filter(rng, 3);
  auto g = random_filter(rng, 3);
  if (f.canonical_key() != g.canonical_key()) return;  // vacuous
  for (int i = 0; i < 200; ++i) {
    auto h = random_header(rng);
    EXPECT_EQ(f.matches(h), g.matches(h)) << f.to_string() << " vs "
                                          << g.to_string();
  }
}

TEST_P(FilterProperty, DoubleNegationPreservesSemantics) {
  util::Rng rng(GetParam() * 31);
  auto f = random_filter(rng, 3);
  auto nn = net::Filter::negate(net::Filter::negate(f));
  for (int i = 0; i < 200; ++i) {
    auto h = random_header(rng);
    EXPECT_EQ(f.matches(h), nn.matches(h));
  }
  EXPECT_EQ(f.canonical_key(), nn.canonical_key());
}

TEST_P(FilterProperty, DeMorganHoldsSemantically) {
  util::Rng rng(GetParam() * 57 + 3);
  auto a = random_filter(rng, 2);
  auto b = random_filter(rng, 2);
  auto lhs = net::Filter::negate(net::Filter::conj(a, b));
  auto rhs = net::Filter::disj(net::Filter::negate(a), net::Filter::negate(b));
  for (int i = 0; i < 200; ++i) {
    auto h = random_header(rng);
    EXPECT_EQ(lhs.matches(h), rhs.matches(h));
  }
  // Note: canonical_key is a syntactic DNF key (no absorption laws), so the
  // keys of the two forms may differ even though semantics agree — only the
  // semantic equivalence is asserted here.
}

INSTANTIATE_TEST_SUITE_P(Sweep, FilterProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- Engine determinism ----------------------------------------------------------

class EngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineProperty, RandomSchedulesExecuteInOrderAndDeterministically) {
  auto run = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    sim::Engine engine;
    std::vector<std::pair<std::int64_t, int>> log;
    for (int i = 0; i < 500; ++i) {
      auto at = sim::Duration::us(rng.next_int(0, 10'000));
      engine.schedule_after(at, [&log, &engine, i] {
        log.emplace_back(engine.now().count_ns(), i);
      });
      if (rng.next_bool(0.1)) engine.run_for(sim::Duration::us(100));
    }
    engine.run();
    return log;
  };
  auto a = run(GetParam());
  auto b = run(GetParam());
  EXPECT_EQ(a, b);  // deterministic
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_LE(a[i - 1].first, a[i].first);  // time-ordered
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- Chaos determinism ------------------------------------------------------------
// A full-system run under an RNG-seeded fault plan (link flaps, switch
// crash/reboot cycles, PCIe loss windows) is a pure function of the seed:
// two runs must agree on every event count and every exported metric.

class ChaosProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosProperty, SeededFaultPlanReplaysToIdenticalMetrics) {
  auto run = [&](std::uint64_t seed) {
    core::FarmSystem farm(core::FarmSystemConfig{
        .topology = {.spines = 2, .leaves = 3, .hosts_per_leaf = 2}});
    core::CollectingHarvester harv(farm.engine(), "p");
    farm.bus().attach_harvester("p", harv);
    auto src = R"(
      machine M {
        place all;
        poll portStats = Poll { .ival = 0.05, .what = port ANY };
        long n = 0;
        state s {
          when (portStats as stats) do { n = n + 1; send n to harvester; }
        }
      }
    )";
    farm.install_task({"p", src, {"M"}, {}});

    sim::ChaosSpec spec = core::ChaosController::default_spec(farm);
    spec.start = sim::TimePoint::origin() + sim::Duration::ms(300);
    spec.end = sim::TimePoint::origin() + sim::Duration::ms(2500);
    spec.incidents = 8;
    core::ChaosController chaos(farm, sim::random_plan(spec, seed));
    chaos.arm();

    util::Rng traffic_rng(seed ^ 0xbeef);
    farm.load_traffic(net::background_traffic(
        farm.topology(), traffic_rng, 30, 4e6, sim::Duration::sec(3)));
    farm.run_for(sim::Duration::sec(4));

    std::uint64_t timeouts = 0, retries = 0, abandoned = 0;
    for (auto* s : farm.soils()) {
      timeouts += s->poll_timeouts();
      retries += s->poll_retries();
      abandoned += s->polls_abandoned();
    }
    return std::make_tuple(
        farm.engine().executed_events(), chaos.injector().injected(),
        chaos.injector().history().size(), harv.count(),
        farm.bus().upstream_bytes(), farm.bus().downstream_bytes(),
        timeouts, retries, abandoned, farm.seeder().reseed_count(),
        farm.seeder().failures_detected(),
        farm.seeder().detection_latency_sum(),
        farm.seeder().migrations_performed(), farm.seeder().deployments());
  };
  auto a = run(GetParam());
  auto b = run(GetParam());
  EXPECT_EQ(a, b);
  // The whole plan executed.
  EXPECT_EQ(std::get<1>(a), 16u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaosProperty,
                         ::testing::Range<std::uint64_t>(1, 5));

// --- LP consistency ---------------------------------------------------------------

class LpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpProperty, OptimalSolutionsAreFeasibleAndConsistent) {
  util::Rng rng(GetParam());
  lp::Model m;
  int n = static_cast<int>(rng.next_int(2, 10));
  for (int j = 0; j < n; ++j)
    m.add_continuous("x", 0, rng.next_double(1, 20), rng.next_double(0, 5));
  int k = static_cast<int>(rng.next_int(1, 6));
  for (int i = 0; i < k; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j)
      if (rng.next_bool(0.5)) terms.push_back({j, rng.next_double(0.1, 2)});
    if (terms.empty()) terms.push_back({0, 1.0});
    m.add_constraint("c", terms, lp::Sense::kLe, rng.next_double(5, 30));
  }
  auto s = lp::solve_lp(m);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  double obj = 0;
  for (int j = 0; j < n; ++j) {
    EXPECT_GE(s.value(j), -1e-7);
    EXPECT_LE(s.value(j), m.vars()[static_cast<std::size_t>(j)].upper + 1e-7);
    obj += m.vars()[static_cast<std::size_t>(j)].objective * s.value(j);
  }
  EXPECT_NEAR(obj, s.objective, 1e-6 * std::max(1.0, std::abs(obj)));
  for (const auto& c : m.constraints()) {
    double lhs = 0;
    for (const auto& t : c.terms) lhs += t.coeff * s.value(t.var);
    EXPECT_LE(lhs, c.rhs + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LpProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

// --- XML stability over the use-case corpus ----------------------------------------

class XmlProperty : public ::testing::TestWithParam<int> {};

TEST_P(XmlProperty, DoubleRoundTripIsAFixedPoint) {
  const auto& uc =
      core::all_use_cases()[static_cast<std::size_t>(GetParam())];
  auto p0 = almanac::parse_program(uc.source);
  auto x1 = almanac::to_xml(p0);
  auto p1 = almanac::from_xml(x1);
  auto x2 = almanac::to_xml(p1);
  EXPECT_EQ(x1, x2) << uc.name;
}

INSTANTIATE_TEST_SUITE_P(AllUseCases, XmlProperty,
                         ::testing::Range(0, 17));

// --- DiSketch merge algebra --------------------------------------------------
// The fragment/merge protocol's load-bearing invariant: folding the F
// fragments of a logical sketch — in any order, any association, at any F —
// reassembles the monolithic sketch bit-for-bit (asserted on serialized
// bytes, the strongest form). Parameterized over the fragment count.

namespace dsk = runtime::disketch;

std::vector<net::SketchSpec> disketch_specs() {
  net::SketchSpec cms;
  cms.kind = net::SketchKind::kCountMin;
  cms.width = 512;
  cms.depth = 4;
  net::SketchSpec mg;
  mg.kind = net::SketchKind::kMisraGries;
  mg.capacity = 64;
  mg.shards = 16;
  net::SketchSpec hll;
  hll.kind = net::SketchKind::kHyperLogLog;
  hll.precision = 10;
  return {cms, mg, hll};
}

class DiSketchProperty : public ::testing::TestWithParam<int> {};

TEST_P(DiSketchProperty, FoldIsBitIdenticalToMonolithicAtAnyFragmentCount) {
  const int frags = GetParam();
  auto stream = dsk::make_zipf_stream(0xD15C, 400, 6000, 1.1);
  for (const auto& spec : disketch_specs()) {
    SCOPED_TRACE(spec.to_string());
    auto mono = dsk::run_fragments(spec, stream, 1).front();
    auto folded = dsk::fold_fragments(dsk::run_fragments(spec, stream, frags));
    EXPECT_TRUE(folded.complete());
    EXPECT_EQ(folded.serialize(), mono.serialize());
  }
}

TEST_P(DiSketchProperty, MergeIsOrderIndependent) {
  const int frags = GetParam();
  if (frags < 2) GTEST_SKIP() << "order needs >= 2 fragments";
  auto stream = dsk::make_zipf_stream(0xBEEF, 300, 4000, 1.2);
  for (const auto& spec : disketch_specs()) {
    SCOPED_TRACE(spec.to_string());
    auto parts = dsk::run_fragments(spec, stream, frags);
    std::string forward = dsk::fold_fragments(parts).serialize();
    // Reversed fold and a few seeded shuffles must yield the same bytes.
    std::vector<dsk::Fragment> rev(parts.rbegin(), parts.rend());
    EXPECT_EQ(dsk::fold_fragments(rev).serialize(), forward);
    util::Rng rng(static_cast<std::uint64_t>(frags) * 77 + 5);
    for (int round = 0; round < 3; ++round) {
      auto shuffled = parts;
      for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1],
                  shuffled[static_cast<std::size_t>(rng.next_below(i))]);
      EXPECT_EQ(dsk::fold_fragments(shuffled).serialize(), forward);
    }
  }
}

TEST_P(DiSketchProperty, MergeIsAssociativeOverRandomTrees) {
  const int frags = GetParam();
  if (frags < 2) GTEST_SKIP() << "association needs >= 2 fragments";
  auto stream = dsk::make_zipf_stream(0xACE, 200, 3000, 1.3);
  for (const auto& spec : disketch_specs()) {
    SCOPED_TRACE(spec.to_string());
    auto parts = dsk::run_fragments(spec, stream, frags);
    std::string forward = dsk::fold_fragments(parts).serialize();
    util::Rng rng(static_cast<std::uint64_t>(frags) * 31 + 9);
    for (int round = 0; round < 4; ++round) {
      // Random association: repeatedly merge two random partial folds.
      auto pool = parts;
      while (pool.size() > 1) {
        std::size_t a = rng.next_below(pool.size());
        std::size_t b = rng.next_below(pool.size() - 1);
        if (b >= a) ++b;
        pool[std::min(a, b)].merge(pool[std::max(a, b)]);
        pool.erase(pool.begin() +
                   static_cast<std::ptrdiff_t>(std::max(a, b)));
      }
      EXPECT_EQ(pool.front().serialize(), forward);
    }
  }
}

TEST_P(DiSketchProperty, SerializationRoundTripsAndEpochFoldReassembles) {
  const int frags = GetParam();
  auto stream = dsk::make_zipf_stream(0xF01D, 250, 3500, 1.1);
  for (const auto& spec : disketch_specs()) {
    SCOPED_TRACE(spec.to_string());
    auto parts = dsk::run_fragments(spec, stream, frags);
    std::string mono = dsk::run_fragments(spec, stream, 1).front().serialize();
    // Wire round-trip preserves bytes; EpochFold over two interleaved
    // epochs (shipped in reverse order) reassembles both.
    dsk::EpochFold fold(frags);
    int completed = 0;
    for (std::int64_t epoch : {7, 8}) {
      for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
        auto wire = dsk::Fragment::deserialize(it->serialize());
        EXPECT_EQ(wire.serialize(), it->serialize());
        if (auto merged = fold.offer(epoch, wire)) {
          EXPECT_EQ(merged->serialize(), mono);
          ++completed;
        }
      }
    }
    EXPECT_EQ(completed, 2);
    EXPECT_EQ(fold.pending_epochs(), 0u);
  }
}

TEST_P(DiSketchProperty, ClearResetsStateButKeepsOwnership) {
  const int frags = GetParam();
  auto s1 = dsk::make_zipf_stream(0xAA, 150, 2000, 1.2);
  auto s2 = dsk::make_zipf_stream(0xBB, 150, 2000, 1.2);
  for (const auto& spec : disketch_specs()) {
    SCOPED_TRACE(spec.to_string());
    // Epoch 1 then clear() then epoch 2 must equal a fresh epoch-2 run.
    auto reused = dsk::run_fragments(spec, s1, frags);
    for (auto& f : reused) {
      f.clear();
      for (const auto& item : s2.items) f.add(item.key, item.count);
    }
    auto fresh = dsk::run_fragments(spec, s2, frags);
    EXPECT_EQ(dsk::fold_fragments(reused).serialize(),
              dsk::fold_fragments(fresh).serialize());
  }
}

INSTANTIATE_TEST_SUITE_P(FragmentCounts, DiSketchProperty,
                         ::testing::Values(1, 2, 4, 16));

// The standalone Misra-Gries merge (net/sketch.h), which DiSketch's MG
// fragments fold with, keeps its accuracy contract when combining
// independently built summaries.
TEST(SketchMergeProperty, MisraGriesMergeKeepsErrorBound) {
  auto a = dsk::make_zipf_stream(5, 300, 5000, 1.3);
  auto b = dsk::make_zipf_stream(6, 300, 5000, 1.3);
  net::MisraGries left(32), right(32);
  std::map<std::string, std::uint64_t> truth;
  for (const auto& it : a.items) left.add(it.key), ++truth[it.key];
  for (const auto& it : b.items) right.add(it.key), ++truth[it.key];
  left.merge(right);
  EXPECT_LE(left.size(), 32u);
  // Agarwal-style merge guarantee: every estimate under-estimates by at
  // most decremented(), which stays within N/(k+1) of the merged stream.
  std::uint64_t n = left.total_added();
  EXPECT_EQ(n, 10000u);
  EXPECT_LE(left.decremented(), n / 33 + 1);
  for (const auto& [key, est] : left.counters()) {
    EXPECT_LE(est, truth[key]);
    EXPECT_GE(est + left.decremented(), truth[key]);
  }
}

// --- Winnow soundness over random machines ---------------------------------------
// 25 sweep seeds x 10 machines = 250 randomized programs. For each: the
// abstract interpreter must terminate without throwing, and the
// optimizer's rewrite must be behaviorally invisible — replay_compare
// drives original and optimized through identical event streams and also
// checks every concrete register value of the original run against the
// analysis envelope (the engine's soundness contract, including handlers
// cut short by runtime EvalErrors).

class WinnowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WinnowProperty, AnalyzerIsSoundAndOptimizerIsInvisible) {
  for (int i = 0; i < 10; ++i) {
    std::uint64_t seed = util::derive_seed(GetParam() * 977 + 13, i);
    farm::testing::WinnowGen gen(seed);
    std::string src = gen.machine_source("Gen");
    SCOPED_TRACE("seed=" + std::to_string(seed) + "\n" + src);

    almanac::Program program;
    ASSERT_NO_THROW(program = almanac::parse_program(src));
    auto cm = almanac::compile_machine(program, "Gen");

    almanac::verify::absint::Analysis an;
    ASSERT_NO_THROW(an = almanac::verify::absint::analyze_machine(cm));
    EXPECT_TRUE(an.converged());

    auto opt = almanac::opt::optimize_machine(cm);
    almanac::opt::ReplayOptions ropts;
    ropts.seed = seed;
    ropts.streams = 2;
    ropts.events_per_stream = 24;
    auto report =
        almanac::opt::replay_compare(cm, opt.machine, opt.analysis, ropts);
    EXPECT_TRUE(report.identical) << report.divergence;
    EXPECT_TRUE(report.intervals_ok) << report.divergence;
    EXPECT_GT(report.events_run, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WinnowProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace farm
