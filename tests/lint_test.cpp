// Sickle lint corpus: every known-bad fixture under tests/lint_corpus/
// must produce exactly the diagnostics recorded in its .expect golden file
// (format("") one-liners, sorted by source position), and the corpus as a
// whole must exercise a healthy spread of distinct diagnostic codes.
// Also covers the seeder's pre-deployment gate end to end: error seeds are
// rejected with a `seed.lint.rejected` event, warning seeds still deploy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "almanac/verify/estimate.h"
#include "almanac/verify/passes.h"
#include "almanac/verify/verify.h"
#include "farm/system.h"
#include "farm/usecases.h"

#ifndef FARM_LINT_CORPUS_DIR
#error "FARM_LINT_CORPUS_DIR must point at tests/lint_corpus"
#endif

namespace farm {
namespace {

namespace fs = std::filesystem;
using almanac::verify::Diagnostic;

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  EXPECT_TRUE(in) << "cannot open " << p;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(FARM_LINT_CORPUS_DIR))
    if (e.path().extension() == ".alm") out.push_back(e.path());
  std::sort(out.begin(), out.end());
  return out;
}

// Mirrors almanac_tool's lint environment: the default spine-leaf
// reference deployment and default switch capacities.
std::vector<Diagnostic> lint_source(const std::string& source) {
  static net::SpineLeaf fabric = net::build_spine_leaf({});
  static net::SdnController controller(fabric.topo);
  almanac::verify::VerifyOptions opts;
  opts.controller = &controller;
  auto program = almanac::parse_program(source);
  return almanac::verify::verify_program(program, opts);
}

TEST(LintCorpus, EveryFixtureMatchesItsGoldenFile) {
  auto files = corpus_files();
  ASSERT_FALSE(files.empty());
  for (const auto& alm : files) {
    SCOPED_TRACE(alm.filename().string());
    fs::path expect = alm;
    expect.replace_extension(".expect");
    ASSERT_TRUE(fs::exists(expect)) << "missing golden file " << expect;

    auto diags = lint_source(read_file(alm));
    std::ostringstream got;
    for (const auto& d : diags) got << d.format("") << "\n";
    EXPECT_EQ(got.str(), read_file(expect));
    // Known-bad means flagged: no fixture may lint silent.
    EXPECT_FALSE(diags.empty());
  }
}

TEST(LintCorpus, CoversAtLeastTenDistinctCodes) {
  std::set<std::string> codes;
  for (const auto& alm : corpus_files())
    for (const auto& d : lint_source(read_file(alm))) codes.insert(d.code);
  EXPECT_GE(codes.size(), 10u) << "corpus has shrunk below the coverage bar";
}

TEST(LintCorpus, GoldenLinesCarryCodeAndPosition) {
  // The .expect format is load-bearing for the docs: "line:col: severity:
  // [CODE] message". Spot-check its shape on every golden line.
  for (const auto& alm : corpus_files()) {
    fs::path expect = alm;
    expect.replace_extension(".expect");
    std::ifstream in(expect);
    std::string line;
    while (std::getline(in, line)) {
      SCOPED_TRACE(expect.filename().string() + ": " + line);
      EXPECT_NE(line.find(": ["), std::string::npos);
      EXPECT_TRUE(line.find("error: ") != std::string::npos ||
                  line.find("warning: ") != std::string::npos ||
                  line.find("note: ") != std::string::npos);
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[0])));
    }
  }
}

// --- Builtins shadow program functions --------------------------------------

// The seed calls the builtin `log`, never this program function of the same
// name, so its nested loops install nothing. Scored as if it ran, they
// would count 48 × 48 = 2304 TCAM installs and fail RS001.
constexpr const char* kShadowedLog = R"ALM(
func long log(string msg) {
  long i = 0;
  while (i < 100) {
    long j = 0;
    while (j < 100) {
      addTCAMRule(iface_filter(j), action_drop());
      j = j + 1;
    }
    i = i + 1;
  }
  return 0;
}
machine Shadow {
  place all;
  time tick = 0.01;
  state s {
    util (res) { return res.vCPU; }
    when (tick as t) do { log("tick"); }
  }
}
)ALM";

TEST(LintBuiltins, ProgramFunctionABuiltinShadowsIsNotWeighed) {
  auto diags = lint_source(kShadowedLog);
  for (const auto& d : diags) ADD_FAILURE() << d.format("");
  auto program = almanac::parse_program(kShadowedLog);
  auto machine = almanac::compile_machine(program, "Shadow");
  almanac::verify::VerifyOptions opts;
  EXPECT_EQ(almanac::verify::estimate_resources(machine, opts).tcam_rules, 0);
  for (const auto& s : machine.states)
    for (const auto* ev : s.events)
      EXPECT_TRUE(
          almanac::verify::reachable_functions(program, ev->actions).empty());
}

// --- Seeder gate -------------------------------------------------------------

core::FarmSystemConfig small_config() {
  core::FarmSystemConfig cfg;
  cfg.topology = {.spines = 2, .leaves = 4, .hosts_per_leaf = 4};
  return cfg;
}

std::string corpus_source(const std::string& name) {
  return read_file(fs::path(FARM_LINT_CORPUS_DIR) / name);
}

TEST(SeederLintGate, RejectsErrorSeedBeforeDeployment) {
  core::FarmSystem farm(small_config());
  auto ids = farm.install_task(
      {"bad", corpus_source("write_external.alm"), {}, {}});
  EXPECT_TRUE(ids.empty());
  EXPECT_EQ(farm.seeder().lint_rejections(), 1u);
  // Nothing was elaborated or deployed.
  EXPECT_EQ(farm.seeder().deployments(), 0u);
  for (auto n : farm.topology().switches())
    EXPECT_EQ(farm.soil(n).seed_count(), 0u);
  // The intake diagnostics are kept for the operator.
  bool saw_df002 = false;
  for (const auto& d : farm.seeder().last_lint())
    if (d.code == almanac::verify::codes::kWriteExternal) saw_df002 = true;
  EXPECT_TRUE(saw_df002);
  EXPECT_GE(farm.telemetry().query().label("seed.lint.rejected").total(), 1.0);
}

TEST(SeederLintGate, WarningsOnlySeedStillDeploys) {
  core::FarmSystem farm(small_config());
  auto ids = farm.install_task(
      {"warn", corpus_source("warnings_only.alm"), {}, {}});
  EXPECT_FALSE(ids.empty());
  EXPECT_EQ(farm.seeder().lint_rejections(), 0u);
  // Warnings survive on last_lint() even though the task deployed.
  EXPECT_FALSE(farm.seeder().last_lint().empty());
  for (const auto& d : farm.seeder().last_lint())
    EXPECT_NE(d.severity, almanac::verify::Severity::kError);
  EXPECT_EQ(farm.telemetry().query().label("seed.lint.rejected").total(), 0.0);
}

TEST(SeederLintGate, CleanSeedLeavesNoDiagnostics) {
  core::FarmSystem farm(small_config());
  const auto& hh = core::use_case("Heavy hitter (HH)");
  auto ids = farm.install_task({"hh", hh.source, hh.machines, {}});
  EXPECT_FALSE(ids.empty());
  EXPECT_TRUE(farm.seeder().last_lint().empty());
  EXPECT_EQ(farm.seeder().lint_rejections(), 0u);
}

TEST(SeederLintGate, DeploysSeedWhoseFunctionABuiltinShadows) {
  core::FarmSystem farm(small_config());
  auto ids = farm.install_task({"shadow", kShadowedLog, {}, {}});
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(farm.seeder().lint_rejections(), 0u);
  farm.run_for(sim::Duration::ms(50));
  EXPECT_GT(farm.telemetry().query().label("seed.handlers").total(), 0.0);
  // Every handler ran the builtin: no seed installed a rule.
  for (auto n : farm.topology().switches())
    EXPECT_EQ(farm.soil(n).chassis().tcam().used(asic::TcamRegion::kMonitoring),
              0);
}

TEST(SeederLintGate, ParseErrorIsRejectedNotThrown) {
  core::FarmSystem farm(small_config());
  auto ids = farm.install_task({"broken", "machine {", {}, {}});
  EXPECT_TRUE(ids.empty());
  EXPECT_EQ(farm.seeder().lint_rejections(), 1u);
  ASSERT_FALSE(farm.seeder().last_lint().empty());
  EXPECT_EQ(farm.seeder().last_lint().front().code, "PARSE");
}

}  // namespace
}  // namespace farm
