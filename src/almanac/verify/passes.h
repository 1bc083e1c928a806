// Internal plumbing shared by Sickle's passes. Not part of the public
// verify.h surface; fixtures and tools should include verify.h only.
#pragma once

#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "almanac/vm.h"
#include "almanac/verify/verify.h"

namespace farm::almanac::verify {

// Each pass appends findings for one machine into the shared sink.
void pass_state_graph(const CompiledMachine& m, const VerifyOptions& opts,
                      DiagnosticSink& sink);
void pass_handlers(const CompiledMachine& m, const VerifyOptions& opts,
                   DiagnosticSink& sink);
void pass_dataflow(const CompiledMachine& m, const VerifyOptions& opts,
                   DiagnosticSink& sink);
void pass_utility(const CompiledMachine& m, const VerifyOptions& opts,
                  DiagnosticSink& sink);
void pass_resources(const CompiledMachine& m, const VerifyOptions& opts,
                    DiagnosticSink& sink);
void pass_places(const CompiledMachine& m, const VerifyOptions& opts,
                 DiagnosticSink& sink);
void pass_absint(const CompiledMachine& m, const VerifyOptions& opts,
                 DiagnosticSink& sink);

// --- AST walking helpers -----------------------------------------------------

// Pre-order walk over an action tree (bodies and else-bodies included).
inline void walk_actions(const std::vector<ActionPtr>& actions,
                         const std::function<void(const Action&)>& fn) {
  for (const auto& a : actions) {
    fn(*a);
    walk_actions(a->body, fn);
    walk_actions(a->else_body, fn);
  }
}

// Pre-order walk over an expression tree.
inline void walk_expr(const Expr& e,
                      const std::function<void(const Expr&)>& fn) {
  fn(e);
  for (const auto& a : e.args)
    if (a) walk_expr(*a, fn);
}

// All expressions hanging off an action (condition/rhs/payload/@dst).
inline void walk_action_exprs(const Action& a,
                              const std::function<void(const Expr&)>& fn) {
  if (a.expr) walk_expr(*a.expr, fn);
  if (a.to_dst) walk_expr(*a.to_dst, fn);
}

// Names of the program functions transitively reachable from `actions`
// (call sites by name; builtins take precedence over same-named user
// functions, matching the interpreter).
std::unordered_set<std::string> reachable_functions(
    const Program& program, const std::vector<ActionPtr>& actions);

}  // namespace farm::almanac::verify
