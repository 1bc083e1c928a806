#include "almanac/compile.h"

#include <algorithm>
#include <unordered_set>

#include "almanac/analysis.h"
#include "almanac/code.h"

namespace farm::almanac {

namespace {

// Diagnostic codes of the compilation front-end (DESIGN.md §10). The
// collecting compiler reports these; the throwing wrapper surfaces the
// first as a CompileError.
constexpr const char* kCodeBadHierarchy = "CM001";  // unknown machine/parent, cycle
constexpr const char* kCodeVarShadow = "CM002";
constexpr const char* kCodeNoStates = "CM003";
constexpr const char* kCodeLocalShadow = "CM004";
constexpr const char* kCodeUtilRestriction = "CM005";
constexpr const char* kCodeBadTransit = "CM006";
constexpr const char* kCodeTriggerInit = "CM007";

// Signature used to decide whether a state-level event overrides a
// machine-level one (same trigger shape).
std::string event_signature(const EventDecl& ev) {
  switch (ev.kind) {
    case EventDecl::TriggerKind::kEnter:
      return "enter";
    case EventDecl::TriggerKind::kExit:
      return "exit";
    case EventDecl::TriggerKind::kRealloc:
      return "realloc";
    case EventDecl::TriggerKind::kVarTrigger:
      return "var:" + ev.var;
    case EventDecl::TriggerKind::kRecv:
      return "recv:" + to_string(ev.recv_type) + ":" +
             (ev.from_harvester ? "harvester" : ev.from_machine);
  }
  return "?";
}

void check_util_expr(const Expr& e, verify::DiagnosticSink& sink) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kVarRef:
      return;
    case Expr::Kind::kFieldAccess:
      check_util_expr(*e.args[0], sink);
      return;
    case Expr::Kind::kBinary:
      switch (e.op) {
        case BinOp::kAnd:
        case BinOp::kOr:
        case BinOp::kEq:
        case BinOp::kLe:
        case BinOp::kGe:
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
          break;
        default:
          sink.error(kCodeUtilRestriction, e.loc,
                     "operator '" + to_string(e.op) +
                         "' is not allowed in util");
          return;
      }
      check_util_expr(*e.args[0], sink);
      check_util_expr(*e.args[1], sink);
      return;
    case Expr::Kind::kCall:
      // §III-A f rule 3: only min and max.
      if (e.name != "min" && e.name != "max" && e.name != "res") {
        sink.error(kCodeUtilRestriction, e.loc,
                   "util may only call min/max (and read res)");
        return;
      }
      for (const auto& a : e.args) check_util_expr(*a, sink);
      return;
    case Expr::Kind::kNot:
    case Expr::Kind::kFilterAtom:
    case Expr::Kind::kStructInit:
      sink.error(kCodeUtilRestriction, e.loc,
                 "construct not allowed inside util");
  }
}

void check_util_actions(const std::vector<ActionPtr>& actions,
                        verify::DiagnosticSink& sink) {
  for (const auto& a : actions) {
    switch (a->kind) {
      case Action::Kind::kIf:
        check_util_expr(*a->expr, sink);
        check_util_actions(a->body, sink);
        check_util_actions(a->else_body, sink);
        break;
      case Action::Kind::kReturn:
        if (a->expr) check_util_expr(*a->expr, sink);
        break;
      default:
        sink.error(kCodeUtilRestriction, a->loc,
                   "util bodies may contain only if-then-else and return");
    }
  }
}

// Throws the first error diagnostic (in report order) as a CompileError.
void throw_first_error(const verify::DiagnosticSink& sink) {
  for (const auto& d : sink.diagnostics())
    if (d.severity == verify::Severity::kError)
      throw CompileError(d.message, d.loc);
}

}  // namespace

void check_util_restrictions_collect(const UtilityDecl& util,
                                     verify::DiagnosticSink& sink) {
  check_util_actions(util.body, sink);
}

void check_util_restrictions(const UtilityDecl& util) {
  verify::DiagnosticSink sink;
  check_util_restrictions_collect(util, sink);
  throw_first_error(sink);
}

std::optional<CompiledMachine> compile_machine_collect(
    const Program& program, const std::string& machine_name,
    verify::DiagnosticSink& sink) {
  // Resolve the inheritance chain, base-most first. Hierarchy problems are
  // unrecoverable: without the chain there is nothing to flatten.
  std::vector<const MachineDecl*> chain;
  std::unordered_set<std::string> seen;
  const MachineDecl* m = program.machine(machine_name);
  if (!m) {
    sink.error(kCodeBadHierarchy, SourceLoc{},
               "unknown machine: " + machine_name);
    return std::nullopt;
  }
  while (m) {
    if (!seen.insert(m->name).second) {
      sink.error(kCodeBadHierarchy, m->loc,
                 "inheritance cycle involving " + m->name);
      return std::nullopt;
    }
    chain.push_back(m);
    if (m->extends.empty()) break;
    const MachineDecl* parent = program.machine(m->extends);
    if (!parent) {
      sink.error(kCodeBadHierarchy, m->loc,
                 "unknown parent machine: " + m->extends);
      return std::nullopt;
    }
    m = parent;
  }
  std::reverse(chain.begin(), chain.end());

  CompiledMachine out;
  out.name = machine_name;
  out.program = &program;

  // Variables: no overriding or shadowing across the chain (§III-A a). A
  // shadowing declaration is dropped (the inherited one stays visible) so
  // later passes still see a consistent variable table.
  std::unordered_set<std::string> var_names;
  for (const auto* mc : chain)
    for (const auto& v : mc->vars) {
      if (!var_names.insert(v.name).second) {
        sink.error(kCodeVarShadow, v.loc,
                   "variable '" + v.name +
                       "' overrides/shadows an inherited one",
                   "rename the variable; inherited variables stay visible");
        continue;
      }
      out.vars.push_back(&v);
    }

  // Placement: the most-derived machine that declares any directives wins.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!(*it)->places.empty()) {
      for (const auto& p : (*it)->places) out.places.push_back(&p);
      break;
    }
  }

  // Machine-level events: child same-signature handlers override parents'.
  std::vector<const EventDecl*> machine_events;
  for (const auto* mc : chain)
    for (const auto& ev : mc->machine_events) {
      std::erase_if(machine_events, [&](const EventDecl* old) {
        return event_signature(*old) == event_signature(ev);
      });
      machine_events.push_back(&ev);
    }

  // States: child overrides parent state of the same name wholesale.
  std::vector<std::pair<std::string, const StateDecl*>> states;
  for (const auto* mc : chain)
    for (const auto& st : mc->states) {
      auto it = std::find_if(states.begin(), states.end(),
                             [&](const auto& p) { return p.first == st.name; });
      if (it != states.end())
        it->second = &st;
      else
        states.emplace_back(st.name, &st);
    }
  if (states.empty()) {
    sink.error(kCodeNoStates, chain.back()->loc,
               "machine has no states: " + machine_name);
    return std::nullopt;
  }
  out.initial_state = states.front().first;

  std::unordered_set<std::string> state_names;
  for (const auto& [name, _] : states) state_names.insert(name);

  for (const auto& [name, decl] : states) {
    CompiledState cs;
    cs.name = name;
    cs.decl = decl;
    cs.util = decl->util ? &*decl->util : nullptr;
    for (const auto& l : decl->locals) {
      if (var_names.count(l.name)) {
        sink.error(kCodeLocalShadow, l.loc,
                   "state local '" + l.name + "' shadows a machine variable",
                   "rename the state local");
        continue;
      }
      cs.locals.push_back(&l);
    }
    std::unordered_set<std::string> sigs;
    for (const auto& ev : decl->events) {
      cs.events.push_back(&ev);
      sigs.insert(event_signature(ev));
    }
    for (const auto* ev : machine_events)
      if (!sigs.count(event_signature(*ev))) cs.events.push_back(ev);
    if (cs.util) {
      check_util_restrictions_collect(*cs.util, sink);
      try {
        cs.utility = analyze_utility(*cs.util);
      } catch (const CompileError& e) {
        cs.utility = e;
      }
    } else {
      cs.utility = default_utility();
    }
    out.states.push_back(std::move(cs));
  }

  // Validate static transit targets (bare identifiers must name states).
  auto check_actions = [&](const std::vector<ActionPtr>& actions,
                           auto&& self) -> void {
    for (const auto& a : actions) {
      if (a->kind == Action::Kind::kTransit && a->expr &&
          a->expr->kind == Expr::Kind::kVarRef &&
          !state_names.count(a->expr->name) && !out.var(a->expr->name)) {
        sink.error(kCodeBadTransit, a->loc,
                   "transit target '" + a->expr->name +
                       "' is neither a state nor a variable");
      }
      self(a->body, self);
      self(a->else_body, self);
    }
  };
  for (const auto& cs : out.states)
    for (const auto* ev : cs.events) check_actions(ev->actions, check_actions);

  // Trigger variables must be declared with an initializer (their Poll /
  // Probe spec) or be assigned before use; we require the initializer so
  // the seeder can analyze polling statically (§III-B c).
  for (const auto* v : out.vars)
    if (v->trigger && *v->trigger != TriggerType::kTime && !v->init)
      sink.error(kCodeTriggerInit, v->loc,
                 "poll/probe variable '" + v->name + "' needs an initializer",
                 "declare it as  poll " + v->name + " = Poll { .ival = ... }");

  out.code = lower_machine(out);
  return out;
}

CompiledMachine compile_machine(const Program& program,
                                const std::string& machine_name) {
  verify::DiagnosticSink sink;
  auto cm = compile_machine_collect(program, machine_name, sink);
  throw_first_error(sink);
  // No errors ⇒ the collecting compiler produced a machine.
  return std::move(*cm);
}

}  // namespace farm::almanac
