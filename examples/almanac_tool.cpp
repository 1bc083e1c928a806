// almanac_tool — developer CLI for the Almanac toolchain.
//
//   almanac_tool check <file.alm>            parse + compile + analyze
//   almanac_tool lint [--werror] <file.alm>  Sickle verification (gcc-style
//                                            diagnostics; exit 1 on errors,
//                                            and on warnings with --werror)
//   almanac_tool optimize <file.alm>         Winnow analysis-driven rewrite:
//                                            per-machine stats, before/after
//                                            TCAM/PCIe estimates, and a
//                                            replay-equivalence verdict
//   almanac_tool xml <file.alm>              emit the XML seed image (§V-A d)
//
// `lint` resolves place directives against the default spine-leaf
// deployment (4 spines × 16 leaves × 8 hosts) and scores resource
// estimates against the default SwitchConfig (1024-entry monitoring TCAM,
// 48 interfaces, 8 Mbps PCIe poll channel).
//
// `check` runs the full seeder front-end on every machine in the program:
// compilation (inheritance, util restrictions), utility analysis
// (constraints C^s / utility u^s as polynomials), and poll analysis
// (subjects + interval functions) — the exact information the placement
// optimizer consumes.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "almanac/analysis.h"
#include "almanac/opt/optimize.h"
#include "almanac/opt/replay.h"
#include "almanac/verify/estimate.h"
#include "almanac/verify/verify.h"
#include "almanac/xml.h"

using namespace farm;

namespace {

int check(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    auto program = almanac::parse_program(buf.str());
    std::printf("%zu function(s), %zu machine(s)\n",
                program.functions.size(), program.machines.size());
    for (const auto& mdecl : program.machines) {
      auto cm = almanac::compile_machine(program, mdecl.name);
      std::printf("\nmachine %s%s\n", cm.name.c_str(),
                  mdecl.extends.empty()
                      ? ""
                      : (" extends " + mdecl.extends).c_str());
      std::printf("  states: ");
      for (const auto& st : cm.states)
        std::printf("%s%s ", st.name.c_str(),
                    st.name == cm.initial_state ? "*" : "");
      std::printf("\n");
      for (const auto& st : cm.states) {
        if (!st.util) continue;
        if (const auto* err = st.utility_error()) throw *err;
        const auto& ua = *st.utility_analysis();
        std::printf("  util[%s]: %zu variant(s)\n", st.name.c_str(),
                    ua.variants.size());
        for (const auto& v : ua.variants) {
          for (const auto& c : v.constraints)
            std::printf("    C: %s >= 0\n", c.to_string().c_str());
          std::printf("    u: min of %zu term(s)", v.util_min_terms.size());
          if (!v.util_min_terms.empty())
            std::printf(" — first: %s",
                        v.util_min_terms[0].to_string().c_str());
          std::printf("\n");
        }
      }
      almanac::Registers env = almanac::static_machine_env(cm);
      for (const auto& pa :
           almanac::analyze_polls(cm, env, almanac::kReferenceAlloc)) {
        std::printf("  %s %s: subjects=%zu, ival%s = %s\n",
                    to_string(pa.ttype).c_str(), pa.var.c_str(),
                    pa.subjects.size(), pa.inv_linear ? "(r)" : "",
                    pa.inv_linear ? ("1/(" + pa.inv_ival.to_string() + ")").c_str()
                                  : "constant");
      }
    }
    std::printf("\nOK\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

int lint(const std::string& path, bool werror) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  // Reference deployment for the topology-dependent passes.
  net::SpineLeaf fabric = net::build_spine_leaf({});
  net::SdnController controller(fabric.topo);
  almanac::verify::VerifyOptions opts;
  opts.controller = &controller;

  std::vector<almanac::verify::Diagnostic> diags;
  try {
    auto program = almanac::parse_program(buf.str());
    diags = almanac::verify::verify_program(program, opts);
  } catch (const std::exception& e) {
    // Parse errors preempt verification; report in the same shape.
    std::fprintf(stderr, "%s: error: [PARSE] %s\n", path.c_str(), e.what());
    return 1;
  }
  for (const auto& d : diags)
    std::fprintf(stderr, "%s\n", d.format(path).c_str());
  std::size_t errors = almanac::verify::count_errors(diags);
  std::size_t warnings = almanac::verify::count_warnings(diags);
  if (!diags.empty())
    std::fprintf(stderr, "%s: %zu error(s), %zu warning(s)\n", path.c_str(),
                 errors, warnings);
  if (errors > 0) return 1;
  if (werror && warnings > 0) return 1;
  return 0;
}

int optimize_cmd(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  net::SpineLeaf fabric = net::build_spine_leaf({});
  net::SdnController controller(fabric.topo);
  almanac::verify::VerifyOptions vopts;
  vopts.controller = &controller;

  try {
    auto program = almanac::parse_program(buf.str());
    bool all_ok = true;
    for (const auto& mdecl : program.machines) {
      auto cm = almanac::compile_machine(program, mdecl.name);
      auto result = almanac::opt::optimize_machine(cm);
      const auto& st = result.stats;
      std::printf("machine %s%s\n", cm.name.c_str(),
                  st.applied ? "" : " (rewrite not applied — fell back)");
      std::printf(
          "  rewrites: %d const fold(s), %d if splice(s), %d dead loop(s),\n"
          "            %d handler(s), %d state(s), %d register(s), "
          "%d store(s)\n",
          st.folded_consts, st.pruned_ifs, st.deleted_loops,
          st.removed_handlers, st.removed_states, st.removed_vars,
          st.removed_stores);

      // Before: the syntactic score the RS pass gates on. After: the
      // optimized machine re-analyzed so its own loop bounds refine the
      // estimate (the original analysis keys loop facts by the original
      // machine's AST nodes).
      auto before = almanac::verify::estimate_resources(cm, vopts, nullptr);
      auto facts = almanac::verify::absint::analyze_machine(result.machine);
      auto after =
          almanac::verify::estimate_resources(result.machine, vopts, &facts);
      std::printf("  tcam: %.0f -> %.0f rule(s)", before.tcam_rules,
                  after.tcam_rules);
      if (before.tcam_rules > 0)
        std::printf(" (%.1f%% reduction)",
                    100.0 * (before.tcam_rules - after.tcam_rules) /
                        before.tcam_rules);
      if (before.pcie_mbps && after.pcie_mbps)
        std::printf("\n  pcie: %.3f -> %.3f Mbps\n", *before.pcie_mbps,
                    *after.pcie_mbps);
      else
        std::printf("\n  pcie: not analyzable\n");

      auto report =
          almanac::opt::replay_compare(cm, result.machine, result.analysis);
      std::printf("  replay: %d event(s), %s\n", report.events_run,
                  report.ok() ? "bit-identical, envelopes hold"
                              : report.divergence.c_str());
      if (!report.ok()) all_ok = false;
    }
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

int emit_xml(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    auto program = almanac::parse_program(buf.str());
    std::printf("%s\n", almanac::to_xml(program).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "check") return check(argv[2]);
  // `lint` and `--lint` are synonyms; `--werror` promotes warnings.
  if (argc >= 3 &&
      (std::string(argv[1]) == "lint" || std::string(argv[1]) == "--lint")) {
    bool werror = false;
    std::string file;
    for (int i = 2; i < argc; ++i) {
      if (std::string(argv[i]) == "--werror")
        werror = true;
      else
        file = argv[i];
    }
    if (!file.empty()) return lint(file, werror);
  }
  if (argc == 3 && std::string(argv[1]) == "optimize")
    return optimize_cmd(argv[2]);
  if (argc == 3 && std::string(argv[1]) == "xml") return emit_xml(argv[2]);
  std::fprintf(stderr,
               "usage: almanac_tool check <file.alm>\n"
               "       almanac_tool lint [--werror] <file.alm>\n"
               "       almanac_tool optimize <file.alm>\n"
               "       almanac_tool xml <file.alm>\n");
  return 2;
}
