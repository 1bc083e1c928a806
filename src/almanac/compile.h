// Machine compilation: inheritance flattening + semantic checks.
//
// Turns a parsed MachineDecl into the form the runtime and the static
// analyses consume:
//   - single inheritance resolved (states overridable; variables must not
//     be overridden or shadowed — §III-A a);
//   - machine-level events merged into each state, with state-level
//     handlers overriding same-signature machine handlers (§III-A b);
//   - util bodies validated against the syntactic restrictions of
//     §III-A f (if/return only; limited operators; only min/max calls);
//   - every state's util analyzed once (analyze_utility, §III-B b): the
//     result, or the error that stops it, is part of the compiled state, so
//     Sickle, the seeder and the seed runtime all read the same derivation;
//   - the machine lowered into slot-resolved code (code.h), which the seed
//     VM (vm.h) runs.
//
// CompiledMachine borrows AST nodes from the Program, which must outlive it.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "almanac/ast.h"
#include "almanac/utility.h"
#include "almanac/verify/diagnostics.h"

namespace farm::almanac {

class CompileError : public std::runtime_error {
 public:
  CompileError(std::string message, SourceLoc loc)
      : std::runtime_error(loc.to_string() + ": " + message), loc_(loc) {}
  SourceLoc loc() const { return loc_; }

 private:
  SourceLoc loc_;
};

struct MachineCode;

struct CompiledState {
  std::string name;
  const StateDecl* decl = nullptr;
  const UtilityDecl* util = nullptr;
  std::vector<const VarDecl*> locals;
  // State-level events first, then applicable (non-overridden)
  // machine-level events.
  std::vector<const EventDecl*> events;
  // The util's analysis: default_utility() for a state without util, the
  // CompileError when the util does not analyze. Compilation never fails
  // on it; Sickle reports the error (UT001) and rejects the task.
  std::variant<UtilityAnalysis, CompileError> utility;

  // Null when the util does not analyze.
  const UtilityAnalysis* utility_analysis() const {
    return std::get_if<UtilityAnalysis>(&utility);
  }
  const CompileError* utility_error() const {
    return std::get_if<CompileError>(&utility);
  }
};

struct CompiledMachine {
  std::string name;
  const Program* program = nullptr;
  // Machine variables, base-most first (inherited then own).
  std::vector<const VarDecl*> vars;
  std::vector<const PlaceDirective*> places;
  std::vector<CompiledState> states;
  std::string initial_state;  // first state declared by the base-most machine
  // The machine's slot-resolved code; shared by copies of the machine.
  std::shared_ptr<const MachineCode> code;

  const CompiledState* state(const std::string& n) const {
    for (const auto& s : states)
      if (s.name == n) return &s;
    return nullptr;
  }
  const VarDecl* var(const std::string& n) const {
    for (const auto* v : vars)
      if (v->name == n) return v;
    return nullptr;
  }
  std::vector<const VarDecl*> trigger_vars() const {
    std::vector<const VarDecl*> out;
    for (const auto* v : vars)
      if (v->trigger) out.push_back(v);
    return out;
  }
};

// Compiles one machine of the program, collecting *all* semantic
// violations into `sink` instead of stopping at the first (diagnostic
// codes CM001..CM007). Recoverable violations (shadowed variables, bad
// util bodies, unknown transit targets, missing poll initializers) leave a
// usable partial machine behind; unrecoverable ones (unknown machine,
// inheritance cycle, no states) return nullopt. Callers that gate on
// correctness should check sink.has_errors() rather than the optional.
std::optional<CompiledMachine> compile_machine_collect(
    const Program& program, const std::string& machine_name,
    verify::DiagnosticSink& sink);

// Throwing wrapper preserved for existing callers: compiles and throws a
// CompileError for the first (source-ordered) error diagnostic.
CompiledMachine compile_machine(const Program& program,
                                const std::string& machine_name);

// Validates a util body against §III-A f. Exposed for direct testing.
// The collecting form reports every violation; the throwing form raises
// the first.
void check_util_restrictions(const UtilityDecl& util);
void check_util_restrictions_collect(const UtilityDecl& util,
                                     verify::DiagnosticSink& sink);

}  // namespace farm::almanac
