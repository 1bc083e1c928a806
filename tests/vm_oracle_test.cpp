// Differential test of the seed VM (src/almanac/vm.h) against the
// tree-walking interpreter it replaced (tree_interp.h). Both run under
// the replay harness (opt/replay.h): the same event menus, stream
// generator and transcript host, so every host effect, hook report and
// thrown EvalError lands in a transcript. Each run also appends its
// machine variables after every event. The transcripts must be
// byte-identical over three corpora: the shipped seeds, the 250 machines
// of the Winnow generator, and longer randomized streams over the shipped
// seeds with large poll snapshots.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "almanac/opt/replay.h"
#include "almanac/opt/transcript.h"
#include "almanac/parser.h"
#include "almanac/seed_core.h"
#include "farm/usecases.h"
#include "tree_interp.h"
#include "util/rng.h"
#include "winnow_gen.h"

namespace farm::almanac {
namespace {

// A transcript run that also records the machine variables after each
// event, so a register one VM computes differently shows up even before
// it reaches a host effect.
template <class Core>
class RegisterDumpRun : public opt::TranscriptSeed<Core> {
 public:
  using Base = opt::TranscriptSeed<Core>;
  RegisterDumpRun(const CompiledMachine& m,
                  const std::unordered_map<std::string, Value>& externals,
                  std::vector<std::string>& transcript)
      : Base(m, externals, transcript), transcript_(transcript) {}

  void start() override {
    Base::start();
    dump();
  }
  void on_poll(const std::string& var, const StatsValue& stats) override {
    Base::on_poll(var, stats);
    dump();
  }
  void on_probe(const std::string& var,
                const net::PacketHeader& packet) override {
    Base::on_probe(var, packet);
    dump();
  }
  void on_time(const std::string& var) override {
    Base::on_time(var);
    dump();
  }
  void on_message(const Value& payload, bool from_harvester,
                  const std::string& from_machine) override {
    Base::on_message(payload, from_harvester, from_machine);
    dump();
  }
  void on_realloc() override {
    Base::on_realloc();
    dump();
  }

 private:
  void dump() {
    std::map<std::string, std::string> sorted;
    for (const auto& [name, v] : Base::machine_vars())
      sorted[name] = v.to_string();
    std::string line = "regs";
    for (const auto& [name, v] : sorted) line += " " + name + "=" + v;
    transcript_.push_back(std::move(line));
  }

  std::vector<std::string>& transcript_;
};

template <class Core>
opt::ReplayRunFactory runs() {
  return [](const CompiledMachine& m,
            const std::unordered_map<std::string, Value>& externals,
            std::vector<std::string>& transcript) {
    return std::make_unique<RegisterDumpRun<Core>>(m, externals, transcript);
  };
}

// The tree-walker is `a` ("original" in divergence reports), the VM `b`.
opt::ReplayReport compare(const CompiledMachine& cm,
                          const opt::ReplayOptions& opts) {
  return opt::replay_compare_runs(cm, runs<tree::SeedCore>(), cm,
                                  runs<SeedCore>(), nullptr, opts);
}

struct Shipped {
  std::string name;
  std::shared_ptr<Program> program;
  CompiledMachine machine;
};

std::vector<Shipped> shipped_machines() {
  std::vector<core::UseCase> all = core::all_use_cases();
  for (const auto& ext : core::extension_use_cases()) all.push_back(ext);
  std::vector<Shipped> out;
  for (const auto& uc : all) {
    auto program = std::make_shared<Program>(parse_program(uc.source));
    for (const auto& name : uc.machines)
      out.push_back({uc.name + " / " + name, program,
                     compile_machine(*program, name)});
  }
  return out;
}

TEST(VmOracle, ShippedSeedsReplayIdentically) {
  auto machines = shipped_machines();
  ASSERT_GE(machines.size(), 22u);
  for (const auto& m : machines) {
    SCOPED_TRACE(m.name);
    auto rep = compare(m.machine, {});
    EXPECT_TRUE(rep.identical) << rep.divergence;
    EXPECT_GT(rep.events_run, 0);
  }
}

// The 250 programs of the Winnow soundness sweep (property_test.cpp): the
// same generator seeds, driven for longer.
TEST(VmOracle, GeneratedMachinesReplayIdentically) {
  int machines = 0;
  for (std::uint64_t sweep = 1; sweep <= 25; ++sweep)
    for (int i = 0; i < 10; ++i) {
      std::uint64_t seed = util::derive_seed(sweep * 977 + 13, i);
      testing::WinnowGen gen(seed);
      std::string src = gen.machine_source("Gen");
      SCOPED_TRACE("seed=" + std::to_string(seed) + "\n" + src);
      Program program = parse_program(src);
      CompiledMachine cm = compile_machine(program, "Gen");
      opt::ReplayOptions opts;
      opts.seed = seed;
      auto rep = compare(cm, opts);
      ASSERT_TRUE(rep.identical) << rep.divergence;
      ++machines;
    }
  EXPECT_EQ(machines, 250);
}

TEST(VmOracle, RandomizedStreamsReplayIdentically) {
  for (const auto& m : shipped_machines()) {
    SCOPED_TRACE(m.name);
    for (std::uint64_t s = 0; s < 4; ++s) {
      opt::ReplayOptions opts;
      opts.seed = util::derive_seed(0x0AC1E, s);
      opts.streams = 2;
      opts.events_per_stream = 200;
      opts.max_ifaces = 48;
      auto rep = compare(m.machine, opts);
      ASSERT_TRUE(rep.identical) << rep.divergence;
      EXPECT_EQ(rep.events_run, 400);
    }
  }
}

}  // namespace
}  // namespace farm::almanac
