// Lowering of compiled machines into slot-resolved code (code.h).
//
// Scoping follows the name-keyed environments the language is defined
// by: a handler body is one block holding its binding; each if branch and
// each while iteration opens a block; a function body is one block
// holding its parameters and sees the machine variables but neither the
// caller's locals nor any state local. A declaration binds its name in
// the innermost block from the next statement on (its own initializer
// still sees the outer binding); declaring a name the block already holds
// rebinds the same slot. Lookup runs innermost block first, then the
// state's locals (handlers and later state-local initializers), then the
// machine variables. Frame slots are reused once their block closes.
#include <algorithm>
#include <unordered_map>

#include "almanac/code.h"
#include "almanac/compile.h"

namespace farm::almanac {

static_assert(std::is_sorted(std::begin(kBuiltinNames),
                             std::end(kBuiltinNames)));

bool is_builtin(std::string_view name) {
  return std::binary_search(std::begin(kBuiltinNames), std::end(kBuiltinNames),
                            name);
}

int MachineCode::state_index(std::string_view name) const {
  for (std::size_t i = 0; i < states.size(); ++i)
    if (states[i].name == name) return static_cast<int>(i);
  return -1;
}

int MachineCode::var_slot(std::string_view name) const {
  for (std::size_t i = 0; i < n_vars; ++i)
    if (names[i] == name) return static_cast<int>(i);
  return -1;
}

namespace {

Field field_of(const std::string& f) {
  static const std::unordered_map<std::string, Field> kFields{
      {"vCPU", Field::kVCpu},       {"RAM", Field::kRam},
      {"TCAM", Field::kTcam},       {"PCIe", Field::kPcie},
      {"srcIP", Field::kSrcIp},     {"dstIP", Field::kDstIp},
      {"srcPort", Field::kSrcPort}, {"dstPort", Field::kDstPort},
      {"size", Field::kSize},       {"proto", Field::kProto},
      {"syn", Field::kSyn},         {"ack", Field::kAck},
      {"fin", Field::kFin},         {"rst", Field::kRst},
      {"ival", Field::kIval},       {"what", Field::kWhat},
      {"pattern", Field::kPattern}, {"act", Field::kAct},
      {"id", Field::kId}};
  auto it = kFields.find(f);
  return it == kFields.end() ? Field::kUnknown : it->second;
}

AtomKind atom_of(const std::string& a) {
  if (a == "srcIP") return AtomKind::kSrcIp;
  if (a == "dstIP") return AtomKind::kDstIp;
  if (a == "proto") return AtomKind::kProto;
  if (a == "port") return AtomKind::kPort;
  if (a == "srcPort") return AtomKind::kSrcPort;
  if (a == "dstPort") return AtomKind::kDstPort;
  if (a == "iface") return AtomKind::kIface;
  return AtomKind::kUnknown;
}

bool reads_slot(const ExprCode& e) {
  return e.kind == ExprCode::Kind::kLocal ||
         e.kind == ExprCode::Kind::kRegister;
}

class Lowerer {
 public:
  Lowerer(const CompiledMachine& machine,
          const std::unordered_map<std::string_view, std::uint32_t>& vars)
      : machine_(machine), vars_(vars) {}

  // State locals visible to the code lowered next, innermost last.
  std::vector<std::pair<std::string_view, std::uint32_t>> state_scope;

  std::uint32_t frame_size() const { return frame_size_; }

  void open() { blocks_.push_back({next_slot_, {}}); }
  void close() {
    next_slot_ = blocks_.back().first_slot;
    blocks_.pop_back();
  }

  std::uint32_t declare(std::string_view name) {
    auto& names = blocks_.back().names;
    for (const auto& [n, slot] : names)
      if (n == name) return slot;
    std::uint32_t slot = next_slot_++;
    frame_size_ = std::max(frame_size_, next_slot_);
    names.emplace_back(name, slot);
    return slot;
  }

  ExprCode expr(const Expr& e) {
    ExprCode out;
    out.src = &e;
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        out.kind = ExprCode::Kind::kConst;
        break;
      case Expr::Kind::kVarRef:
        resolve(e.name, out);
        break;
      case Expr::Kind::kFieldAccess:
        out.kind = ExprCode::Kind::kField;
        out.field = field_of(e.name);
        break;
      case Expr::Kind::kBinary:
        out.kind = ExprCode::Kind::kBinary;
        out.op = e.op;
        break;
      case Expr::Kind::kNot:
        out.kind = ExprCode::Kind::kNot;
        break;
      case Expr::Kind::kCall:
        lower_callee(e, out);
        break;
      case Expr::Kind::kFilterAtom:
        out.kind = ExprCode::Kind::kFilterAtom;
        out.atom = atom_of(e.name);
        break;
      case Expr::Kind::kStructInit:
        out.kind = ExprCode::Kind::kStruct;
        out.st = e.name == "Poll"    ? StructKind::kPoll
                 : e.name == "Probe" ? StructKind::kProbe
                 : e.name == "Rule"  ? StructKind::kRule
                                     : StructKind::kUnknown;
        lower_struct_fields(e, out);
        return out;
    }
    if (e.kind != Expr::Kind::kLiteral && e.kind != Expr::Kind::kVarRef)
      for (const auto& a : e.args) out.args.push_back(expr(*a));
    finish(out);
    return out;
  }

  std::vector<StmtCode> actions(const std::vector<ActionPtr>& list) {
    std::vector<StmtCode> out;
    out.reserve(list.size());
    for (const auto& a : list) out.push_back(action(*a));
    return out;
  }

 private:
  struct Block {
    std::uint32_t first_slot;
    std::vector<std::pair<std::string_view, std::uint32_t>> names;
  };

  void resolve(const std::string& name, ExprCode& out) {
    for (auto b = blocks_.rbegin(); b != blocks_.rend(); ++b)
      for (const auto& [n, slot] : b->names)
        if (n == name) {
          out.kind = ExprCode::Kind::kLocal;
          out.index = slot;
          return;
        }
    for (auto l = state_scope.rbegin(); l != state_scope.rend(); ++l)
      if (l->first == name) {
        out.kind = ExprCode::Kind::kRegister;
        out.index = l->second;
        return;
      }
    auto it = vars_.find(name);
    if (it != vars_.end()) {
      out.kind = ExprCode::Kind::kRegister;
      out.index = it->second;
      return;
    }
    out.kind = ExprCode::Kind::kUnbound;
  }

  // Builtins first: a program function named like one is never called.
  void lower_callee(const Expr& e, ExprCode& out) {
    auto b = std::lower_bound(std::begin(kBuiltinNames),
                              std::end(kBuiltinNames), e.name);
    if (b != std::end(kBuiltinNames) && *b == e.name) {
      out.kind = ExprCode::Kind::kBuiltin;
      out.builtin = static_cast<Builtin>(b - std::begin(kBuiltinNames));
      return;
    }
    const FuncDecl* f = machine_.program->function(e.name);
    out.kind = f && f->params.size() == e.args.size()
                   ? ExprCode::Kind::kCall
                   : ExprCode::Kind::kBadCall;
    out.index = f ? static_cast<std::uint32_t>(
                        f - machine_.program->functions.data())
                  : ExprCode::kNoFunction;
  }

  // Struct fields are read by label, first occurrence, in the fixed order
  // the struct's constructor consumes them; unread labels never run.
  void lower_struct_fields(const Expr& e, ExprCode& out) {
    std::vector<const char*> order;
    if (out.st == StructKind::kPoll || out.st == StructKind::kProbe)
      order = {"ival", "what"};
    else if (out.st == StructKind::kRule)
      order = {"pattern", "act", "priority"};
    for (const char* label : order) {
      ExprCode f;
      for (std::size_t i = 0; i < e.field_names.size(); ++i)
        if (e.field_names[i] == label) {
          f = expr(*e.args[i]);
          break;
        }
      out.args.push_back(std::move(f));
    }
    for (auto& a : out.args) {
      out.has_call |= a.has_call;
      a.in_place = reads_slot(a);  // each field is consumed as it is read
    }
  }

  // An operand is read in place unless a later operand calls a program
  // function; a function's arguments are copied into its frame anyway.
  void finish(ExprCode& out) {
    out.has_call = out.kind == ExprCode::Kind::kCall;
    bool later_call = false;
    for (auto a = out.args.rbegin(); a != out.args.rend(); ++a) {
      a->in_place = reads_slot(*a) && !later_call;
      later_call |= a->has_call;
    }
    out.has_call |= later_call;
  }

  // An operand consumed before anything else runs (a condition, an
  // assigned value) is read in place.
  ExprCode operand(const Expr& e) {
    ExprCode c = expr(e);
    c.in_place = reads_slot(c);
    return c;
  }

  std::vector<StmtCode> block(const std::vector<ActionPtr>& list) {
    open();
    std::vector<StmtCode> out = actions(list);
    close();
    return out;
  }

  StmtCode action(const Action& a) {
    StmtCode s;
    s.src = &a;
    switch (a.kind) {
      case Action::Kind::kDeclare:
        s.kind = StmtCode::Kind::kDeclare;
        if (a.expr) s.expr = operand(*a.expr);
        s.slot = declare(a.target);
        break;
      case Action::Kind::kAssign: {
        s.expr = operand(*a.expr);
        ExprCode target;
        resolve(a.target, target);
        s.kind = target.kind == ExprCode::Kind::kUnbound
                     ? StmtCode::Kind::kAssignUndeclared
                     : StmtCode::Kind::kAssign;
        s.to_register = target.kind == ExprCode::Kind::kRegister;
        s.slot = target.index;
        // Trigger variables re-arm on reassignment of their name.
        const VarDecl* vd = machine_.var(a.target);
        s.trigger = vd && vd->trigger;
        break;
      }
      case Action::Kind::kIf:
        s.kind = StmtCode::Kind::kIf;
        s.expr = operand(*a.expr);
        s.body = block(a.body);
        s.else_body = block(a.else_body);
        break;
      case Action::Kind::kWhile:
        s.kind = StmtCode::Kind::kWhile;
        s.expr = operand(*a.expr);
        s.body = block(a.body);
        break;
      case Action::Kind::kTransit:
        s.kind = StmtCode::Kind::kTransit;
        s.slot = StmtCode::kDynamicTarget;
        // A bare state identifier names the state, even where a variable
        // of that name is in scope.
        if (a.expr->kind == Expr::Kind::kVarRef) {
          for (std::size_t i = 0; i < machine_.states.size(); ++i)
            if (machine_.states[i].name == a.expr->name) {
              s.slot = static_cast<std::uint32_t>(i);
              break;
            }
        }
        if (s.slot == StmtCode::kDynamicTarget) s.expr = operand(*a.expr);
        break;
      case Action::Kind::kSend:
        s.kind = StmtCode::Kind::kSend;
        s.expr = expr(*a.expr);
        if (a.to_dst) s.dst = expr(*a.to_dst);
        s.expr.in_place = reads_slot(s.expr) && !s.dst.has_call;
        s.send.to_harvester = a.to_harvester;
        s.send.machine = a.to_machine;
        break;
      case Action::Kind::kReturn:
        s.kind = StmtCode::Kind::kReturn;
        if (a.expr) s.expr = expr(*a.expr);
        break;
      case Action::Kind::kExprStmt:
        s.kind = StmtCode::Kind::kExpr;
        s.expr = expr(*a.expr);
        break;
    }
    return s;
  }

  const CompiledMachine& machine_;
  const std::unordered_map<std::string_view, std::uint32_t>& vars_;
  std::vector<Block> blocks_;
  std::uint32_t next_slot_ = 0;
  std::uint32_t frame_size_ = 0;
};

std::unordered_map<std::string_view, std::uint32_t> var_slots(
    const CompiledMachine& m) {
  std::unordered_map<std::string_view, std::uint32_t> out;
  for (std::size_t i = 0; i < m.vars.size(); ++i)
    out.emplace(m.vars[i]->name, static_cast<std::uint32_t>(i));
  return out;
}

HandlerCode lower_handler(
    const CompiledMachine& m,
    const std::unordered_map<std::string_view, std::uint32_t>& vars,
    const std::vector<std::pair<std::string_view, std::uint32_t>>& locals,
    const EventDecl& ev) {
  HandlerCode h;
  h.decl = &ev;
  Lowerer low(m, vars);
  low.state_scope = locals;
  low.open();
  const std::string& binding =
      ev.kind == EventDecl::TriggerKind::kVarTrigger ? ev.as_var
      : ev.kind == EventDecl::TriggerKind::kRecv     ? ev.recv_var
                                                     : std::string();
  if (!binding.empty()) h.binding_slot = static_cast<int>(low.declare(binding));
  h.body = low.actions(ev.actions);
  h.frame_size = low.frame_size();
  if (ev.kind == EventDecl::TriggerKind::kVarTrigger) {
    auto it = vars.find(ev.var);
    if (it != vars.end()) h.trigger_reg = static_cast<int>(it->second);
  }
  return h;
}

}  // namespace

std::shared_ptr<const MachineCode> lower_machine(
    const CompiledMachine& machine) {
  auto code = std::make_shared<MachineCode>();
  const auto vars = var_slots(machine);
  code->n_vars = machine.vars.size();
  for (const auto* v : machine.vars) code->names.push_back(v->name);

  {
    Lowerer low(machine, vars);
    for (const auto* v : machine.vars)
      code->var_inits.push_back(v->init ? low.expr(*v->init) : ExprCode{});
  }

  for (const auto& cs : machine.states) {
    StateCode sc;
    sc.name = cs.name;
    // A state's locals get register slots of their own; a name the state
    // declares twice keeps one slot, initialized twice.
    std::vector<std::pair<std::string_view, std::uint32_t>> scope;
    for (const auto* l : cs.locals) {
      StateLocalCode lc;
      lc.decl = l;
      Lowerer low(machine, vars);
      low.state_scope = scope;
      if (l->init) lc.init = low.expr(*l->init);
      auto same = std::find_if(scope.begin(), scope.end(), [&](const auto& s) {
        return s.first == l->name;
      });
      if (same != scope.end()) {
        lc.reg = same->second;
      } else {
        lc.reg = static_cast<std::uint32_t>(code->names.size());
        code->names.push_back(l->name);
        scope.emplace_back(l->name, lc.reg);
      }
      sc.locals.push_back(std::move(lc));
    }
    for (const auto* ev : cs.events)
      sc.handlers.push_back(lower_handler(machine, vars, scope, *ev));
    code->states.push_back(std::move(sc));
  }

  for (const auto& f : machine.program->functions) {
    FunctionCode fc;
    fc.decl = &f;
    Lowerer low(machine, vars);
    low.open();
    for (const auto& p : f.params) fc.param_slots.push_back(low.declare(p.name));
    fc.body = low.actions(f.body);
    fc.frame_size = low.frame_size();
    code->functions.push_back(std::move(fc));
  }
  return code;
}

ExprCode lower_expr(const CompiledMachine& machine, const Expr& e) {
  const auto vars = var_slots(machine);
  Lowerer low(machine, vars);
  return low.expr(e);
}

}  // namespace farm::almanac
