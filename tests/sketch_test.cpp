// Tests for the sketch extension (§VIII future work): count-min and
// HyperLogLog primitives, their Almanac builtins, and the sketch-based
// use-case variants' accuracy/memory trade-off.
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "almanac/compile.h"
#include "almanac/vm.h"
#include "almanac/parser.h"
#include "net/sketch.h"
#include "util/rng.h"

namespace farm::net {
namespace {

TEST(CountMinTest, ExactForDistinctKeysUnderCapacity) {
  CountMinSketch cms(512, 4);
  for (int i = 0; i < 50; ++i)
    cms.add("key" + std::to_string(i), static_cast<std::uint64_t>(i + 1));
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(cms.estimate("key" + std::to_string(i)),
              static_cast<std::uint64_t>(i + 1));
}

TEST(CountMinTest, NeverUnderestimates) {
  util::Rng rng(5);
  CountMinSketch cms(64, 4);  // deliberately small — collisions guaranteed
  std::unordered_map<std::string, std::uint64_t> truth;
  for (int i = 0; i < 5000; ++i) {
    std::string key = "k" + std::to_string(rng.next_zipf(300, 1.1));
    std::uint64_t c = static_cast<std::uint64_t>(rng.next_int(1, 5));
    cms.add(key, c);
    truth[key] += c;
  }
  for (const auto& [key, count] : truth)
    EXPECT_GE(cms.estimate(key), count) << key;
}

TEST(CountMinTest, HeavyKeysAccurateUnderZipf) {
  // The heavy keys of a skewed stream must be estimated within a few
  // percent even with heavy collision pressure — the HH use case's need.
  util::Rng rng(6);
  CountMinSketch cms(1024, 4);
  std::unordered_map<std::string, std::uint64_t> truth;
  for (int i = 0; i < 100'000; ++i) {
    std::string key = "k" + std::to_string(rng.next_zipf(5000, 1.2));
    cms.add(key);
    ++truth[key];
  }
  for (const auto& [key, count] : truth) {
    if (count < 1000) continue;  // only the heavy keys
    double err = static_cast<double>(cms.estimate(key) - count) /
                 static_cast<double>(count);
    EXPECT_LT(err, 0.05) << key << " truth=" << count;
  }
}

TEST(CountMinTest, ClearResets) {
  CountMinSketch cms(64, 2);
  cms.add("a", 100);
  cms.clear();
  EXPECT_EQ(cms.estimate("a"), 0u);
  EXPECT_EQ(cms.total_added(), 0u);
}

TEST(HyperLogLogTest, SmallCardinalitiesNearExact) {
  HyperLogLog hll(12);
  for (int i = 0; i < 100; ++i) hll.add("item" + std::to_string(i));
  EXPECT_NEAR(hll.estimate(), 100, 5);
}

TEST(HyperLogLogTest, LargeCardinalitiesWithinExpectedError) {
  HyperLogLog hll(12);  // σ ≈ 1.04/√4096 ≈ 1.6%
  const int n = 200'000;
  for (int i = 0; i < n; ++i) hll.add("item" + std::to_string(i));
  EXPECT_NEAR(hll.estimate(), n, n * 0.05);
}

TEST(HyperLogLogTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(10);
  for (int round = 0; round < 50; ++round)
    for (int i = 0; i < 40; ++i) hll.add("dup" + std::to_string(i));
  EXPECT_NEAR(hll.estimate(), 40, 5);
}

TEST(HyperLogLogTest, MemoryIsConstant) {
  HyperLogLog hll(10);
  auto before = hll.memory_bytes();
  for (int i = 0; i < 100'000; ++i) hll.add("x" + std::to_string(i));
  EXPECT_EQ(hll.memory_bytes(), before);
  EXPECT_EQ(before, 1024u);  // 2^10 registers
}

// --- Almanac builtin integration ----------------------------------------------

// The machine's registers, each bound to its initializer or type default.
almanac::Registers bound_registers(const almanac::CompiledMachine& cm) {
  almanac::Vm vm(cm, nullptr);
  almanac::Registers regs(cm);
  for (std::size_t i = 0; i < cm.vars.size(); ++i) {
    const auto* v = cm.vars[i];
    regs.bind(i, v->init ? vm.eval(cm.code->var_inits[i], regs)
                         : almanac::default_value(v->type));
  }
  return regs;
}

// Runs the first handler of state `s` (its enter handler) host-less.
void run_enter(const almanac::CompiledMachine& cm, almanac::Registers& regs) {
  almanac::Vm vm(cm, nullptr);
  vm.run(cm.code->states[static_cast<std::size_t>(cm.code->state_index("s"))]
             .handlers[0],
         regs);
}

TEST(SketchBuiltinTest, CmsRoundTripThroughAlmanac) {
  auto program = almanac::parse_program(R"(
    machine M {
      sketch counts = cms_new(256, 4);
      long est = 0;
      state s {
        when (enter) do {
          long i = 0;
          while (i < 100) { cms_add(counts, "hot", 1); i = i + 1; }
          cms_add(counts, "cold", 2);
          est = cms_estimate(counts, "hot");
        }
      }
    }
  )");
  auto cm = almanac::compile_machine(program, "M");
  almanac::Registers env = bound_registers(cm);
  run_enter(cm, env);
  EXPECT_EQ(env.var("est")->as_int(), 100);
}

TEST(SketchBuiltinTest, HllDistinctCountThroughAlmanac) {
  auto program = almanac::parse_program(R"(
    machine M {
      sketch distinct = hll_new(12);
      long est = 0;
      state s {
        when (enter) do {
          long i = 0;
          while (i < 500) {
            hll_add(distinct, "src" + to_str(to_long(i / 2)));
            i = i + 1;
          }
          est = hll_estimate(distinct);
        }
      }
    }
  )");
  auto cm = almanac::compile_machine(program, "M");
  almanac::Registers env = bound_registers(cm);
  run_enter(cm, env);
  // 500 adds over 250 distinct keys.
  EXPECT_NEAR(static_cast<double>(env.var("est")->as_int()), 250, 20);
}

// --- Misra-Gries -------------------------------------------------------------

TEST(MisraGriesTest, ExactUnderCapacity) {
  MisraGries mg(16);
  for (int i = 0; i < 10; ++i)
    mg.add("k" + std::to_string(i), static_cast<std::uint64_t>(i + 1));
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(mg.estimate("k" + std::to_string(i)),
              static_cast<std::uint64_t>(i + 1));
  EXPECT_EQ(mg.decremented(), 0u);
}

TEST(MisraGriesTest, HeavyHittersSurviveEviction) {
  // 1 heavy key among many light ones: any key with true count >
  // N/(capacity+1) must be tracked when the stream ends.
  MisraGries mg(8);
  for (int i = 0; i < 500; ++i) {
    mg.add("heavy");
    mg.add("light" + std::to_string(i));
  }
  EXPECT_LE(mg.size(), 8u);
  EXPECT_GT(mg.estimate("heavy") + mg.decremented(), 400u);
  auto hh = mg.hitters(1);
  bool found = false;
  for (const auto& [k, _] : hh) found |= k == "heavy";
  EXPECT_TRUE(found);
}

TEST(MisraGriesTest, EstimateIsLowerBoundWithinDecrement) {
  util::Rng rng(99);
  MisraGries mg(32);
  std::unordered_map<std::string, std::uint64_t> truth;
  for (int i = 0; i < 20000; ++i) {
    std::string key = "f" + std::to_string(rng.next_zipf(500, 1.2));
    mg.add(key);
    ++truth[key];
  }
  EXPECT_LE(mg.decremented(), 20000u / 33 + 1);
  for (const auto& [key, est] : mg.counters()) {
    EXPECT_LE(est, truth[key]);
    EXPECT_GE(est + mg.decremented(), truth[key]);
  }
}

TEST(MisraGriesTest, RestoreRoundTrip) {
  MisraGries mg(8);
  for (int i = 0; i < 100; ++i) mg.add("k" + std::to_string(i % 12));
  MisraGries back = MisraGries::restore(mg.capacity(), mg.total_added(),
                                        mg.decremented(), mg.counters());
  EXPECT_EQ(back.counters(), mg.counters());
  EXPECT_EQ(back.total_added(), mg.total_added());
  EXPECT_EQ(back.decremented(), mg.decremented());
}

TEST(SketchBuiltinTest, MgHeavyHittersThroughAlmanac) {
  auto program = almanac::parse_program(R"(
    machine M {
      sketch hot = mg_new(8);
      long est = 0;
      list hh;
      state s {
        when (enter) do {
          long i = 0;
          while (i < 50) {
            mg_add(hot, "elephant", 10);
            mg_add(hot, "mouse" + to_str(i), 1);
            i = i + 1;
          }
          est = mg_estimate(hot, "elephant");
          hh = mg_hitters(hot, 100);
        }
      }
    }
  )");
  auto cm = almanac::compile_machine(program, "M");
  almanac::Registers env = bound_registers(cm);
  run_enter(cm, env);
  // The elephant (true count 500 of 550) dominates every eviction round.
  EXPECT_GT(env.var("est")->as_int(), 400);
  ASSERT_EQ(env.var("hh")->as_list()->size(), 1u);
  EXPECT_EQ((*env.var("hh")->as_list())[0].as_string(), "elephant");
}

TEST(SketchBuiltinTest, InvalidParamsThrowInsteadOfAborting) {
  // FARM_CHECK aborts; the builtins must reject bad geometry with an
  // EvalError so the Sickle linter's host-less evaluation survives.
  auto run = [](const std::string& init) {
    auto program = almanac::parse_program(
        "machine M { sketch x = " + init + "; state s { } }");
    auto cm = almanac::compile_machine(program, "M");
    almanac::Vm vm(cm, nullptr);
    almanac::Registers env(cm);
    vm.eval(cm.code->var_inits[0], env);
  };
  EXPECT_THROW(run("cms_new(0, 4)"), almanac::EvalError);
  EXPECT_THROW(run("cms_new(128, 99)"), almanac::EvalError);
  EXPECT_THROW(run("mg_new(0)"), almanac::EvalError);
  EXPECT_THROW(run("hll_new(3)"), almanac::EvalError);
  EXPECT_THROW(run("hll_new(17)"), almanac::EvalError);
  EXPECT_NO_THROW(run("cms_new(128, 4)"));
  EXPECT_NO_THROW(run("mg_new(16)"));
  EXPECT_NO_THROW(run("hll_new(12)"));
}

TEST(SketchBuiltinTest, TypeErrorsRaiseCleanly) {
  auto program = almanac::parse_program(R"(
    machine M {
      sketch h = hll_new(10);
      state s { when (enter) do { cms_add(h, "x", 1); } }
    }
  )");
  auto cm = almanac::compile_machine(program, "M");
  almanac::Registers env = bound_registers(cm);
  EXPECT_THROW(run_enter(cm, env), almanac::EvalError);
}

}  // namespace
}  // namespace farm::net
