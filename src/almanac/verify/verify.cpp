#include "almanac/verify/verify.h"

#include "almanac/vm.h"
#include "almanac/verify/passes.h"

namespace farm::almanac::verify {

namespace {

void collect_functions(const Program& program,
                       const std::vector<ActionPtr>& actions,
                       std::unordered_set<std::string>& out) {
  walk_actions(actions, [&](const Action& a) {
    walk_action_exprs(a, [&](const Expr& e) {
      if (e.kind != Expr::Kind::kCall || is_builtin(e.name)) return;
      const FuncDecl* f = program.function(e.name);
      if (!f || out.count(e.name)) return;
      out.insert(e.name);
      collect_functions(program, f->body, out);
    });
  });
}

}  // namespace

std::unordered_set<std::string> reachable_functions(
    const Program& program, const std::vector<ActionPtr>& actions) {
  std::unordered_set<std::string> out;
  collect_functions(program, actions, out);
  return out;
}

std::vector<Diagnostic> verify_machine(const CompiledMachine& machine,
                                       const VerifyOptions& options) {
  DiagnosticSink sink;
  pass_state_graph(machine, options, sink);
  pass_handlers(machine, options, sink);
  pass_dataflow(machine, options, sink);
  pass_utility(machine, options, sink);
  pass_resources(machine, options, sink);
  pass_places(machine, options, sink);
  pass_absint(machine, options, sink);
  return sink.take_sorted();
}

std::vector<Diagnostic> verify_program(
    const Program& program, const std::vector<std::string>& machines,
    const VerifyOptions& options, std::vector<CompiledMachine>* compiled) {
  std::vector<std::string> names = machines;
  if (names.empty())
    for (const auto& mdecl : program.machines) names.push_back(mdecl.name);
  DiagnosticSink all;
  for (const auto& name : names) {
    DiagnosticSink front;
    auto cm = compile_machine_collect(program, name, front);
    bool compiled_clean = cm.has_value() && !front.has_errors();
    for (auto& d : front.take_sorted())
      all.report(d.code, d.severity, d.loc, d.message, d.hint);
    // The deep passes assume a well-formed machine; partial compiles would
    // only produce follow-on noise.
    if (!compiled_clean) continue;
    for (auto& d : verify_machine(*cm, options))
      all.report(d.code, d.severity, d.loc, d.message, d.hint);
    if (compiled) compiled->push_back(std::move(*cm));
  }
  return all.take_sorted();
}

std::vector<Diagnostic> verify_program(const Program& program,
                                       const VerifyOptions& options) {
  return verify_program(program, {}, options);
}

}  // namespace farm::almanac::verify
