#include "tree_interp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "almanac/analysis.h"
#include "util/check.h"

namespace farm::almanac::tree {

namespace {

double need_num(const Value& v, SourceLoc loc, const char* what) {
  if (!v.is_numeric())
    throw EvalError(std::string(what) + ": expected number, got " +
                        v.type_name(),
                    loc);
  return v.as_float();
}

// int64 range representable without undefined casts: [-2^63, 2^63) — the
// upper bound is exclusive because 2^63 itself rounds to a double that is
// out of range.
constexpr double kI64DblLo = -9223372036854775808.0;
constexpr double kI64DblHi = 9223372036854775808.0;

std::int64_t need_int(const Value& v, SourceLoc loc, const char* what) {
  if (v.is_int()) return v.as_int();
  if (v.is_float()) {
    double f = v.as_float();
    if (f == std::floor(f) && f >= kI64DblLo && f < kI64DblHi)
      return static_cast<std::int64_t>(f);
  }
  throw EvalError(std::string(what) + ": expected integer, got " +
                      v.to_string(),
                  loc);
}

std::int64_t checked_arith(std::int64_t a, std::int64_t b, BinOp op,
                           SourceLoc loc) {
  std::int64_t r = 0;
  bool ovf = op == BinOp::kAdd   ? __builtin_add_overflow(a, b, &r)
             : op == BinOp::kSub ? __builtin_sub_overflow(a, b, &r)
                                 : __builtin_mul_overflow(a, b, &r);
  if (ovf)
    throw EvalError(std::string("integer overflow in '") +
                        (op == BinOp::kAdd   ? "+"
                         : op == BinOp::kSub ? "-"
                                             : "*") +
                        "'",
                    loc);
  return r;
}

double resource_field(const ResourcesValue& r, const std::string& name) {
  if (name == "vCPU") return r.vCPU;
  if (name == "RAM") return r.RAM;
  if (name == "TCAM") return r.TCAM;
  if (name == "PCIe") return r.PCIe;
  FARM_CHECK_MSG(false, ("unknown resource field: " + name).c_str());
}

const net::Filter& need_filter(const Value& v, SourceLoc loc,
                               const char* what) {
  if (!v.is_filter())
    throw EvalError(std::string(what) + ": expected filter, got " +
                        v.type_name(),
                    loc);
  return v.as_filter();
}

}  // namespace

Value* Env::find(const std::string& name) {
  for (Env* e = this; e; e = e->parent_) {
    auto it = e->vars_.find(name);
    if (it != e->vars_.end()) return &it->second;
  }
  return nullptr;
}

const Value* Env::find(const std::string& name) const {
  return const_cast<Env*>(this)->find(name);
}

bool Env::assign(const std::string& name, Value v) {
  if (Value* slot = find(name)) {
    *slot = std::move(v);
    return true;
  }
  return false;
}

Value Interpreter::default_value(TypeName t) {
  switch (t) {
    case TypeName::kBool:
      return Value(false);
    case TypeName::kInt:
    case TypeName::kLong:
      return Value(std::int64_t{0});
    case TypeName::kFloat:
      return Value(0.0);
    case TypeName::kString:
      return Value(std::string{});
    case TypeName::kList:
      return Value::empty_list();
    case TypeName::kPacket:
      return Value(net::PacketHeader{});
    case TypeName::kAction:
      return Value(ActionValue{});
    case TypeName::kFilter:
      return Value(net::Filter{});
    case TypeName::kStats:
      return Value(StatsValue{});
    case TypeName::kRule:
      return Value(asic::TcamRule{});
    case TypeName::kSketch:
      return Value(SketchValue{});
    case TypeName::kVoid:
      return Value();
  }
  return Value();
}

bool Interpreter::matches_type(const Value& v, TypeName t) {
  switch (t) {
    case TypeName::kBool:
      return v.is_bool();
    case TypeName::kInt:
    case TypeName::kLong:
      return v.is_int();
    case TypeName::kFloat:
      return v.is_numeric();
    case TypeName::kString:
      return v.is_string();
    case TypeName::kList:
      return v.is_list();
    case TypeName::kPacket:
      return v.is_packet();
    case TypeName::kAction:
      return v.is_action();
    case TypeName::kFilter:
      return v.is_filter();
    case TypeName::kStats:
      return v.is_stats();
    case TypeName::kRule:
      return v.is_rule();
    case TypeName::kSketch:
      return v.is_sketch();
    case TypeName::kVoid:
      return v.is_nil();
  }
  return false;
}

Value Interpreter::eval(const Expr& e, Env& env) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kVarRef: {
      if (Value* v = env.find(e.name)) return *v;
      throw EvalError("undefined variable: " + e.name, e.loc);
    }
    case Expr::Kind::kFieldAccess:
      return eval_field(e, env);
    case Expr::Kind::kBinary:
      return eval_binary(e, env);
    case Expr::Kind::kNot: {
      Value v = eval(*e.args[0], env);
      if (v.is_bool()) return Value(!v.as_bool());
      if (v.is_filter()) return Value(net::Filter::negate(v.as_filter()));
      throw EvalError("'not' expects bool or filter, got " + v.type_name(),
                      e.loc);
    }
    case Expr::Kind::kCall:
      return eval_call(e, env);
    case Expr::Kind::kFilterAtom:
      return eval_filter_atom(e, env);
    case Expr::Kind::kStructInit:
      return eval_struct_init(e, env);
  }
  throw EvalError("unhandled expression", e.loc);
}

Value Interpreter::eval_binary(const Expr& e, Env& env) {
  const Expr& le = *e.args[0];
  const Expr& re = *e.args[1];
  // Short-circuit only applies to boolean operands; filters always need
  // both sides.
  Value lhs = eval(le, env);
  if (e.op == BinOp::kAnd && lhs.is_bool()) {
    if (!lhs.as_bool()) return Value(false);
    Value rhs = eval(re, env);
    if (rhs.is_bool()) return rhs;
    if (rhs.is_filter()) return rhs;  // true AND f == f
    throw EvalError("'and' expects bool or filter operands", e.loc);
  }
  if (e.op == BinOp::kOr && lhs.is_bool()) {
    if (lhs.as_bool()) return Value(true);
    Value rhs = eval(re, env);
    if (rhs.is_bool()) return rhs;
    if (rhs.is_filter()) return rhs;  // false OR f == f
    throw EvalError("'or' expects bool or filter operands", e.loc);
  }
  Value rhs = eval(re, env);

  switch (e.op) {
    case BinOp::kAnd:
    case BinOp::kOr: {
      if (lhs.is_filter() || rhs.is_filter()) {
        net::Filter lf = lhs.is_filter() ? lhs.as_filter() : net::Filter{};
        net::Filter rf = rhs.is_filter() ? rhs.as_filter() : net::Filter{};
        if (!lhs.is_filter() && !(lhs.is_bool() && lhs.as_bool()))
          throw EvalError("cannot combine non-filter with filter", e.loc);
        if (!rhs.is_filter() && !(rhs.is_bool() && rhs.as_bool()))
          throw EvalError("cannot combine filter with non-filter", e.loc);
        return Value(e.op == BinOp::kAnd ? net::Filter::conj(lf, rf)
                                         : net::Filter::disj(lf, rf));
      }
      throw EvalError("'and'/'or' expect bool or filter operands", e.loc);
    }
    case BinOp::kAdd:
      if (lhs.is_string() && rhs.is_string())
        return Value(lhs.as_string() + rhs.as_string());
      if (lhs.is_string() || rhs.is_string())
        return Value((lhs.is_string() ? lhs.as_string() : lhs.to_string()) +
                     (rhs.is_string() ? rhs.as_string() : rhs.to_string()));
      if (lhs.is_list() && rhs.is_list()) {
        auto out = std::make_shared<std::vector<Value>>(*lhs.as_list());
        out->insert(out->end(), rhs.as_list()->begin(), rhs.as_list()->end());
        return Value(std::move(out));
      }
      if (lhs.is_int() && rhs.is_int())
        return Value(checked_arith(lhs.as_int(), rhs.as_int(), e.op, e.loc));
      return Value(need_num(lhs, e.loc, "+") + need_num(rhs, e.loc, "+"));
    case BinOp::kSub:
      if (lhs.is_int() && rhs.is_int())
        return Value(checked_arith(lhs.as_int(), rhs.as_int(), e.op, e.loc));
      return Value(need_num(lhs, e.loc, "-") - need_num(rhs, e.loc, "-"));
    case BinOp::kMul:
      if (lhs.is_int() && rhs.is_int())
        return Value(checked_arith(lhs.as_int(), rhs.as_int(), e.op, e.loc));
      return Value(need_num(lhs, e.loc, "*") * need_num(rhs, e.loc, "*"));
    case BinOp::kDiv: {
      double denom = need_num(rhs, e.loc, "/");
      if (denom == 0) throw EvalError("division by zero", e.loc);
      if (lhs.is_int() && rhs.is_int()) {
        std::int64_t a = lhs.as_int();
        std::int64_t b = rhs.as_int();
        // INT64_MIN / -1 (and its % probe) overflows int64.
        if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
          throw EvalError("integer overflow in '/'", e.loc);
        if (a % b == 0) return Value(a / b);
      }
      return Value(need_num(lhs, e.loc, "/") / denom);
    }
    case BinOp::kEq:
      return Value(lhs.equals(rhs));
    case BinOp::kNe:
      return Value(!lhs.equals(rhs));
    case BinOp::kLe:
    case BinOp::kGe:
    case BinOp::kLt:
    case BinOp::kGt: {
      if (lhs.is_string() && rhs.is_string()) {
        int c = lhs.as_string().compare(rhs.as_string());
        switch (e.op) {
          case BinOp::kLe:
            return Value(c <= 0);
          case BinOp::kGe:
            return Value(c >= 0);
          case BinOp::kLt:
            return Value(c < 0);
          default:
            return Value(c > 0);
        }
      }
      double a = need_num(lhs, e.loc, "compare");
      double b = need_num(rhs, e.loc, "compare");
      switch (e.op) {
        case BinOp::kLe:
          return Value(a <= b);
        case BinOp::kGe:
          return Value(a >= b);
        case BinOp::kLt:
          return Value(a < b);
        default:
          return Value(a > b);
      }
    }
  }
  throw EvalError("unhandled binary operator", e.loc);
}

Value Interpreter::eval_filter_atom(const Expr& e, Env& env) {
  if (e.name == "port" && e.args.empty()) {
    // `port ANY`: every switch interface.
    return Value(net::Filter::any_iface());
  }
  if (e.name == "iface" && e.args.empty())
    return Value(net::Filter::any_iface());
  if (e.args.empty())
    throw EvalError("filter atom '" + e.name + "' needs an argument", e.loc);
  Value arg = eval(*e.args[0], env);
  if (e.name == "srcIP" || e.name == "dstIP") {
    if (!arg.is_string())
      throw EvalError(e.name + " expects a string prefix", e.loc);
    auto p = net::Prefix::parse(arg.as_string());
    if (!p)
      throw EvalError("malformed prefix: " + arg.as_string(), e.loc);
    return Value(e.name == "srcIP" ? net::Filter::src_ip(*p)
                                   : net::Filter::dst_ip(*p));
  }
  if (e.name == "proto") {
    const std::string& p = arg.as_string();
    if (p == "tcp") return Value(net::Filter::proto(net::Proto::kTcp));
    if (p == "udp") return Value(net::Filter::proto(net::Proto::kUdp));
    if (p == "icmp") return Value(net::Filter::proto(net::Proto::kIcmp));
    throw EvalError("unknown protocol: " + p, e.loc);
  }
  std::int64_t v = need_int(arg, e.loc, e.name.c_str());
  if (e.name == "port")
    return Value(net::Filter::l4_port(static_cast<std::uint16_t>(v)));
  if (e.name == "srcPort")
    return Value(net::Filter::src_port(static_cast<std::uint16_t>(v),
                                       static_cast<std::uint16_t>(v)));
  if (e.name == "dstPort")
    return Value(net::Filter::dst_port(static_cast<std::uint16_t>(v),
                                       static_cast<std::uint16_t>(v)));
  if (e.name == "iface")
    return Value(net::Filter::iface(static_cast<std::int32_t>(v)));
  throw EvalError("unknown filter atom: " + e.name, e.loc);
}

Value Interpreter::eval_struct_init(const Expr& e, Env& env) {
  auto field = [&](const std::string& f) -> const Expr* {
    for (std::size_t i = 0; i < e.field_names.size(); ++i)
      if (e.field_names[i] == f) return e.args[i].get();
    return nullptr;
  };
  if (e.name == "Poll" || e.name == "Probe") {
    TriggerSpec spec;
    if (const Expr* ival = field("ival"))
      spec.ival_seconds = need_num(eval(*ival, env), e.loc, "ival");
    else
      throw EvalError(e.name + " requires .ival", e.loc);
    if (const Expr* what = field("what"))
      spec.what = need_filter(eval(*what, env), e.loc, "what");
    return Value(std::move(spec));
  }
  if (e.name == "Rule") {
    asic::TcamRule rule;
    if (const Expr* p = field("pattern"))
      rule.pattern = need_filter(eval(*p, env), e.loc, "pattern");
    else
      throw EvalError("Rule requires .pattern", e.loc);
    if (const Expr* a = field("act")) {
      Value av = eval(*a, env);
      if (!av.is_action())
        throw EvalError("Rule.act must be an action value", e.loc);
      rule.action = av.as_action().action;
      rule.rate_limit_bps = av.as_action().rate_limit_bps;
    }
    if (const Expr* pr = field("priority"))
      rule.priority = static_cast<int>(need_int(eval(*pr, env), e.loc,
                                                "priority"));
    return Value(std::move(rule));
  }
  throw EvalError("unknown struct type: " + e.name, e.loc);
}

Value Interpreter::eval_field(const Expr& e, Env& env) {
  Value base = eval(*e.args[0], env);
  const std::string& f = e.name;
  if (base.is_resources()) return Value(resource_field(base.as_resources(), f));
  if (base.is_packet()) {
    const auto& p = base.as_packet();
    if (f == "srcIP") return Value(p.src_ip.to_string());
    if (f == "dstIP") return Value(p.dst_ip.to_string());
    if (f == "srcPort") return Value(std::int64_t{p.src_port});
    if (f == "dstPort") return Value(std::int64_t{p.dst_port});
    if (f == "size") return Value(std::int64_t{p.size_bytes});
    if (f == "proto")
      return Value(p.proto == net::Proto::kTcp   ? "tcp"
                   : p.proto == net::Proto::kUdp ? "udp"
                                                 : "icmp");
    if (f == "syn") return Value(p.flags.syn);
    if (f == "ack") return Value(p.flags.ack);
    if (f == "fin") return Value(p.flags.fin);
    if (f == "rst") return Value(p.flags.rst);
    throw EvalError("unknown packet field: " + f, e.loc);
  }
  if (base.is_trigger()) {
    const auto& t = base.as_trigger();
    if (f == "ival") return Value(t.ival_seconds);
    if (f == "what") return Value(t.what);
    throw EvalError("unknown trigger field: " + f, e.loc);
  }
  if (base.is_rule()) {
    const auto& r = base.as_rule();
    if (f == "pattern") return Value(r.pattern);
    if (f == "act") {
      ActionValue a;
      a.action = r.action;
      a.rate_limit_bps = r.rate_limit_bps;
      return Value(a);
    }
    if (f == "id") return Value(static_cast<std::int64_t>(r.id));
    throw EvalError("unknown rule field: " + f, e.loc);
  }
  throw EvalError("value of type " + base.type_name() + " has no field " + f,
                  e.loc);
}

// Builtins come first: a program function named like one is never called
// (kBuiltinNames lists every name builtin() dispatches).
Value Interpreter::eval_call(const Expr& e, Env& env) {
  std::vector<Value> args;
  args.reserve(e.args.size());
  for (const auto& a : e.args) args.push_back(eval(*a, env));

  bool handled = false;
  Value v = builtin(e.name, args, e.loc, handled);
  if (handled) return v;
  return call_function(e.name, std::move(args), env, e.loc);
}

Value Interpreter::call_function(const std::string& name,
                                 std::vector<Value> args, Env& root,
                                 SourceLoc loc) {
  const FuncDecl* f = machine_.program->function(name);
  if (!f) throw EvalError("unknown function: " + name, loc);
  if (f->params.size() != args.size())
    throw EvalError("function " + name + " expects " +
                        std::to_string(f->params.size()) + " arguments, got " +
                        std::to_string(args.size()),
                    loc);
  if (++call_depth_ > kMaxCallDepth) {
    --call_depth_;
    throw EvalError("call depth exceeded in " + name, loc);
  }
  // Function scope chains onto the machine root so helpers can read
  // machine-level configuration.
  Env* root_most = &root;
  while (root_most->parent()) root_most = root_most->parent();
  Env scope(root_most);
  for (std::size_t i = 0; i < args.size(); ++i)
    scope.define(f->params[i].name, std::move(args[i]));
  ExecResult r = exec(f->body, scope);
  --call_depth_;
  return r.returned ? r.return_value : Value();
}

Value Interpreter::builtin(const std::string& name, std::vector<Value>& args,
                           SourceLoc loc, bool& handled) {
  handled = true;
  auto arity = [&](std::size_t n) {
    if (args.size() != n)
      throw EvalError(name + " expects " + std::to_string(n) + " arguments",
                      loc);
  };
  if (name == "res") {
    arity(0);
    return Value(host(loc)->resources());
  }
  if (name == "min" || name == "max") {
    if (args.size() < 2) throw EvalError(name + " expects >= 2 args", loc);
    bool all_int = true;
    for (const auto& a : args) all_int &= a.is_int();
    if (all_int) {
      std::int64_t acc = args[0].as_int();
      for (std::size_t i = 1; i < args.size(); ++i)
        acc = name == "min" ? std::min(acc, args[i].as_int())
                            : std::max(acc, args[i].as_int());
      return Value(acc);
    }
    double acc = need_num(args[0], loc, name.c_str());
    for (std::size_t i = 1; i < args.size(); ++i) {
      double v = need_num(args[i], loc, name.c_str());
      acc = name == "min" ? std::min(acc, v) : std::max(acc, v);
    }
    return Value(acc);
  }
  if (name == "abs") {
    arity(1);
    if (args[0].is_int()) {
      std::int64_t v = args[0].as_int();
      if (v == std::numeric_limits<std::int64_t>::min())
        throw EvalError("integer overflow in 'abs'", loc);
      return Value(v < 0 ? -v : v);
    }
    return Value(std::abs(need_num(args[0], loc, "abs")));
  }
  if (name == "addTCAMRule") {
    if (args.size() == 1 && args[0].is_rule()) {
      host(loc)->add_tcam_rule(args[0].as_rule());
      return Value();
    }
    arity(2);
    asic::TcamRule rule;
    rule.pattern = need_filter(args[0], loc, "addTCAMRule");
    if (!args[1].is_action())
      throw EvalError("addTCAMRule: second argument must be an action", loc);
    rule.action = args[1].as_action().action;
    rule.rate_limit_bps = args[1].as_action().rate_limit_bps;
    host(loc)->add_tcam_rule(rule);
    return Value();
  }
  if (name == "removeTCAMRule") {
    arity(1);
    host(loc)->remove_tcam_rule(need_filter(args[0], loc, "removeTCAMRule"));
    return Value();
  }
  if (name == "getTCAMRule") {
    arity(1);
    auto r = host(loc)->get_tcam_rule(need_filter(args[0], loc, "getTCAMRule"));
    return r ? Value(*r) : Value();
  }
  if (name == "exec") {
    arity(1);
    if (!args[0].is_string())
      throw EvalError("exec expects a command string", loc);
    host(loc)->exec(args[0].as_string());
    return Value();
  }
  // --- actions --------------------------------------------------------------
  if (name == "action_drop") {
    arity(0);
    return Value(ActionValue{asic::RuleAction::kDrop, 0});
  }
  if (name == "action_rate_limit") {
    arity(1);
    return Value(
        ActionValue{asic::RuleAction::kRateLimit, need_num(args[0], loc, name.c_str())});
  }
  if (name == "action_count") {
    arity(0);
    return Value(ActionValue{asic::RuleAction::kCount, 0});
  }
  if (name == "action_mirror") {
    arity(0);
    return Value(ActionValue{asic::RuleAction::kMirror, 0});
  }
  // --- lists ----------------------------------------------------------------
  if (name == "list_new") {
    arity(0);
    return Value::empty_list();
  }
  if (name == "list_size") {
    arity(1);
    return Value(static_cast<std::int64_t>(args[0].as_list()->size()));
  }
  if (name == "is_list_empty") {
    arity(1);
    return Value(args[0].as_list()->empty());
  }
  if (name == "list_get") {
    arity(2);
    const auto& l = *args[0].as_list();
    auto i = need_int(args[1], loc, "list_get");
    if (i < 0 || static_cast<std::size_t>(i) >= l.size())
      throw EvalError("list index out of range", loc);
    return l[static_cast<std::size_t>(i)];
  }
  if (name == "list_append") {
    arity(2);
    args[0].as_list()->push_back(args[1]);
    return args[0];
  }
  if (name == "list_clear") {
    arity(1);
    args[0].as_list()->clear();
    return args[0];
  }
  if (name == "list_contains") {
    arity(2);
    for (const auto& v : *args[0].as_list())
      if (v.equals(args[1])) return Value(true);
    return Value(false);
  }
  if (name == "list_index_of") {
    arity(2);
    const auto& l = *args[0].as_list();
    for (std::size_t i = 0; i < l.size(); ++i)
      if (l[i].equals(args[1])) return Value(static_cast<std::int64_t>(i));
    return Value(std::int64_t{-1});
  }
  if (name == "list_set") {
    arity(3);
    auto& l = *args[0].as_list();
    auto i = need_int(args[1], loc, "list_set");
    if (i < 0 || static_cast<std::size_t>(i) >= l.size())
      throw EvalError("list index out of range", loc);
    l[static_cast<std::size_t>(i)] = args[2];
    return args[0];
  }
  // --- statistics snapshots ---------------------------------------------------
  if (name == "stats_size") {
    arity(1);
    return Value(static_cast<std::int64_t>(args[0].as_stats().entries->size()));
  }
  if (name == "stats_iface" || name == "stats_bytes" ||
      name == "stats_packets" || name == "stats_subject") {
    arity(2);
    const auto& entries = *args[0].as_stats().entries;
    auto i = need_int(args[1], loc, name.c_str());
    if (i < 0 || static_cast<std::size_t>(i) >= entries.size())
      throw EvalError("stats index out of range", loc);
    const StatEntry& s = entries[static_cast<std::size_t>(i)];
    if (name == "stats_iface") return Value(std::int64_t{s.iface});
    if (name == "stats_bytes")
      return Value(static_cast<std::int64_t>(s.bytes));
    if (name == "stats_packets")
      return Value(static_cast<std::int64_t>(s.packets));
    return Value(s.subject);
  }
  // --- conversions & misc -----------------------------------------------------
  // --- sketches (§VIII extension) --------------------------------------------
  if (name == "cms_new") {
    arity(2);
    // Validate via SketchSpec before construction — FARM_CHECK aborts, and
    // seed initializers are also evaluated inside the Sickle linter.
    net::SketchSpec spec;
    spec.kind = net::SketchKind::kCountMin;
    spec.width = static_cast<int>(need_int(args[0], loc, "cms_new width"));
    spec.depth = static_cast<int>(need_int(args[1], loc, "cms_new depth"));
    if (std::string err = spec.validate(); !err.empty())
      throw EvalError("cms_new: " + err, loc);
    SketchValue s;
    s.cms = std::make_shared<net::CountMinSketch>(spec.width, spec.depth);
    return Value(std::move(s));
  }
  if (name == "cms_add") {
    arity(3);
    if (!args[0].is_sketch() || !args[0].as_sketch().cms)
      throw EvalError("cms_add expects a count-min sketch", loc);
    std::string key = args[1].is_string() ? args[1].as_string()
                                          : args[1].to_string();
    args[0].as_sketch().cms->add(
        key, static_cast<std::uint64_t>(need_int(args[2], loc, "cms_add")));
    return Value();
  }
  if (name == "cms_estimate") {
    arity(2);
    if (!args[0].is_sketch() || !args[0].as_sketch().cms)
      throw EvalError("cms_estimate expects a count-min sketch", loc);
    std::string key = args[1].is_string() ? args[1].as_string()
                                          : args[1].to_string();
    return Value(
        static_cast<std::int64_t>(args[0].as_sketch().cms->estimate(key)));
  }
  if (name == "cms_clear") {
    arity(1);
    if (!args[0].is_sketch() || !args[0].as_sketch().cms)
      throw EvalError("cms_clear expects a count-min sketch", loc);
    args[0].as_sketch().cms->clear();
    return Value();
  }
  if (name == "mg_new") {
    arity(1);
    net::SketchSpec spec;
    spec.kind = net::SketchKind::kMisraGries;
    spec.capacity =
        static_cast<int>(need_int(args[0], loc, "mg_new capacity"));
    spec.shards = 1;  // seed-local summaries are unsharded
    if (std::string err = spec.validate(); !err.empty())
      throw EvalError("mg_new: " + err, loc);
    SketchValue s;
    s.mg = std::make_shared<net::MisraGries>(spec.capacity);
    return Value(std::move(s));
  }
  if (name == "mg_add") {
    arity(3);
    if (!args[0].is_sketch() || !args[0].as_sketch().mg)
      throw EvalError("mg_add expects a misra-gries summary", loc);
    std::string key = args[1].is_string() ? args[1].as_string()
                                          : args[1].to_string();
    args[0].as_sketch().mg->add(
        key, static_cast<std::uint64_t>(need_int(args[2], loc, "mg_add")));
    return Value();
  }
  if (name == "mg_estimate") {
    arity(2);
    if (!args[0].is_sketch() || !args[0].as_sketch().mg)
      throw EvalError("mg_estimate expects a misra-gries summary", loc);
    std::string key = args[1].is_string() ? args[1].as_string()
                                          : args[1].to_string();
    return Value(
        static_cast<std::int64_t>(args[0].as_sketch().mg->estimate(key)));
  }
  if (name == "mg_hitters") {
    arity(2);
    if (!args[0].is_sketch() || !args[0].as_sketch().mg)
      throw EvalError("mg_hitters expects a misra-gries summary", loc);
    auto min_count = need_int(args[1], loc, "mg_hitters");
    auto out = std::make_shared<std::vector<Value>>();
    for (const auto& [k, c] : args[0].as_sketch().mg->hitters(
             static_cast<std::uint64_t>(min_count > 0 ? min_count : 0)))
      out->push_back(Value(k));
    return Value(std::move(out));
  }
  if (name == "mg_clear") {
    arity(1);
    if (!args[0].is_sketch() || !args[0].as_sketch().mg)
      throw EvalError("mg_clear expects a misra-gries summary", loc);
    args[0].as_sketch().mg->clear();
    return Value();
  }
  if (name == "hll_new") {
    arity(1);
    net::SketchSpec spec;
    spec.kind = net::SketchKind::kHyperLogLog;
    spec.precision =
        static_cast<int>(need_int(args[0], loc, "hll_new precision"));
    if (std::string err = spec.validate(); !err.empty())
      throw EvalError("hll_new: " + err, loc);
    SketchValue s;
    s.hll = std::make_shared<net::HyperLogLog>(spec.precision);
    return Value(std::move(s));
  }
  if (name == "hll_add") {
    arity(2);
    if (!args[0].is_sketch() || !args[0].as_sketch().hll)
      throw EvalError("hll_add expects a HyperLogLog", loc);
    args[0].as_sketch().hll->add(args[1].is_string() ? args[1].as_string()
                                                     : args[1].to_string());
    return Value();
  }
  if (name == "hll_estimate") {
    arity(1);
    if (!args[0].is_sketch() || !args[0].as_sketch().hll)
      throw EvalError("hll_estimate expects a HyperLogLog", loc);
    return Value(
        static_cast<std::int64_t>(args[0].as_sketch().hll->estimate() + 0.5));
  }
  if (name == "hll_clear") {
    arity(1);
    if (!args[0].is_sketch() || !args[0].as_sketch().hll)
      throw EvalError("hll_clear expects a HyperLogLog", loc);
    args[0].as_sketch().hll->clear();
    return Value();
  }
  if (name == "is_nil") {
    arity(1);
    return Value(args[0].is_nil());
  }
  if (name == "to_long") {
    arity(1);
    if (args[0].is_string()) {
      // std::stoll throws std::invalid_argument / std::out_of_range, which
      // would escape the runtime's EvalError handler; convert here.
      try {
        return Value(
            static_cast<std::int64_t>(std::stoll(args[0].as_string())));
      } catch (const std::exception&) {
        throw EvalError("to_long: cannot parse '" + args[0].as_string() +
                            "' as an integer",
                        loc);
      }
    }
    double f = std::trunc(need_num(args[0], loc, "to_long"));
    if (!(f >= kI64DblLo && f < kI64DblHi))
      throw EvalError("integer overflow in 'to_long'", loc);
    return Value(static_cast<std::int64_t>(f));
  }
  if (name == "to_float") {
    arity(1);
    return Value(need_num(args[0], loc, "to_float"));
  }
  if (name == "to_str") {
    arity(1);
    return Value(args[0].is_string() ? args[0].as_string()
                                     : args[0].to_string());
  }
  if (name == "iface_filter") {
    arity(1);
    return Value(net::Filter::iface(
        static_cast<std::int32_t>(need_int(args[0], loc, "iface_filter"))));
  }
  if (name == "now_ms") {
    arity(0);
    return Value(host(loc)->now_ms());
  }
  if (name == "switch_id") {
    arity(0);
    return Value(host(loc)->switch_id());
  }
  if (name == "log") {
    arity(1);
    host(loc)->log(args[0].is_string() ? args[0].as_string()
                                       : args[0].to_string());
    return Value();
  }
  handled = false;
  return Value();
}

ExecResult Interpreter::exec(const std::vector<ActionPtr>& actions, Env& env) {
  for (const auto& a : actions) {
    switch (a->kind) {
      case Action::Kind::kDeclare: {
        Value v = a->expr ? eval(*a->expr, env)
                          : default_value(a->decl_type);
        env.define(a->target, std::move(v));
        break;
      }
      case Action::Kind::kAssign: {
        Value v = eval(*a->expr, env);
        if (!env.assign(a->target, std::move(v)))
          throw EvalError("assignment to undeclared variable: " + a->target,
                          a->loc);
        // Trigger variables re-arm their timers on reassignment.
        if (const VarDecl* vd = machine_.var(a->target); vd && vd->trigger)
          if (host_) host_->trigger_updated(a->target);
        break;
      }
      case Action::Kind::kIf: {
        Value c = eval(*a->expr, env);
        if (!c.is_bool())
          throw EvalError("if condition must be bool", a->loc);
        Env scope(&env);
        ExecResult r = exec(c.as_bool() ? a->body : a->else_body, scope);
        if (r.returned) return r;
        break;
      }
      case Action::Kind::kWhile: {
        std::int64_t guard = 0;
        for (;;) {
          Value c = eval(*a->expr, env);
          if (!c.is_bool())
            throw EvalError("while condition must be bool", a->loc);
          if (!c.as_bool()) break;
          Env scope(&env);
          ExecResult r = exec(a->body, scope);
          if (r.returned) return r;
          if (++guard > kMaxLoopIterations)
            throw EvalError("while loop exceeded iteration budget", a->loc);
        }
        break;
      }
      case Action::Kind::kTransit: {
        std::string target;
        if (a->expr->kind == Expr::Kind::kVarRef &&
            machine_.state(a->expr->name)) {
          target = a->expr->name;  // bare state identifier
        } else {
          Value v = eval(*a->expr, env);
          if (!v.is_string())
            throw EvalError("transit target must be a state name", a->loc);
          target = v.as_string();
        }
        if (!machine_.state(target))
          throw EvalError("transit to unknown state: " + target, a->loc);
        if (host_) host_->request_transit(target);
        break;
      }
      case Action::Kind::kSend: {
        Value payload = eval(*a->expr, env);
        SendTarget target;
        target.to_harvester = a->to_harvester;
        target.machine = a->to_machine;
        if (a->to_dst)
          target.dst = need_int(eval(*a->to_dst, env), a->loc, "send @dst");
        if (host_) host_->send(payload, target);
        break;
      }
      case Action::Kind::kReturn: {
        ExecResult r;
        r.returned = true;
        if (a->expr) r.return_value = eval(*a->expr, env);
        return r;
      }
      case Action::Kind::kExprStmt:
        eval(*a->expr, env);
        break;
    }
  }
  return {};
}

// --- The event loop ------------------------------------------------------

SeedCore::SeedCore(const CompiledMachine& machine)
    : machine_(machine),
      current_state_(machine.initial_state),
      interp_(machine, this) {}

SeedCore::~SeedCore() = default;

void SeedCore::bind(const std::unordered_map<std::string, Value>& externals) {
  for (const auto* v : machine_.vars) {
    auto ext = externals.find(v->name);
    if (ext != externals.end()) {
      FARM_CHECK_MSG(v->external,
                     "binding supplied for non-external variable");
      env_.define(v->name, ext->second);
    } else if (v->init) {
      env_.define(v->name, interp_.eval(*v->init, env_));
    } else if (v->trigger) {
      env_.define(v->name, Value(TriggerSpec{}));
    } else {
      env_.define(v->name, Interpreter::default_value(v->type));
    }
  }
}

void SeedCore::start() {
  FARM_CHECK(!started_);
  started_ = true;
  fire_simple(EventDecl::TriggerKind::kEnter);
  apply_pending_transit();
}

void SeedCore::resume(
    const std::string& state,
    const std::unordered_map<std::string, Value>& machine_vars) {
  FARM_CHECK(!started_);
  started_ = true;
  current_state_ = state;
  FARM_CHECK_MSG(this->state() != nullptr,
                 "snapshot references unknown state");
  for (const auto& [name, v] : machine_vars)
    if (machine_.var(name)) env_.define(name, v);
}

void SeedCore::run_handler(const std::vector<ActionPtr>& actions,
                           const std::string& bind_name,
                           const Value& bind_value) {
  Env scope(&env_);
  if (!bind_name.empty()) scope.define(bind_name, bind_value);
  handler_ran();
  try {
    interp_.exec(actions, scope);
  } catch (const EvalError& e) {
    handler_failed(Site::kHandler, e);
  }
  apply_pending_transit();
}

// A handler that transits does not stop the loop: the remaining handlers
// of the state the event was delivered in still run.
void SeedCore::fire_var(const std::string& var, const Value& bind_value) {
  const CompiledState* st = state();
  if (!started_ || !st) return;
  for (const auto* ev : st->events)
    if (ev->kind == EventDecl::TriggerKind::kVarTrigger && ev->var == var)
      run_handler(ev->actions, ev->as_var, bind_value);
}

void SeedCore::fire_simple(EventDecl::TriggerKind kind) {
  const CompiledState* st = state();
  if (!started_ || !st) return;
  for (const auto* ev : st->events)
    if (ev->kind == kind) run_handler(ev->actions, "", Value());
}

void SeedCore::run_transit_handlers(EventDecl::TriggerKind kind, Site site) {
  const CompiledState* st = state();
  if (!st) return;
  for (const auto* ev : st->events) {
    if (ev->kind != kind) continue;
    Env scope(&env_);
    try {
      interp_.exec(ev->actions, scope);
    } catch (const EvalError& e) {
      handler_failed(site, e);
    }
  }
}

void SeedCore::apply_pending_transit() {
  while (pending_transit_) {
    if (++transit_depth_ > kMaxTransitChain) {
      pending_transit_.reset();
      chain_cut();
      break;
    }
    std::string target = std::move(*pending_transit_);
    pending_transit_.reset();
    if (target == current_state_) continue;
    run_transit_handlers(EventDecl::TriggerKind::kExit, Site::kExit);
    current_state_ = std::move(target);
    // Enter handlers may request the next transit; the loop takes it.
    run_transit_handlers(EventDecl::TriggerKind::kEnter, Site::kEnter);
    state_entered();
  }
  transit_depth_ = 0;
}

void SeedCore::on_poll(const std::string& var, const StatsValue& stats) {
  fire_var(var, Value(stats));
}

void SeedCore::on_probe(const std::string& var,
                        const net::PacketHeader& packet) {
  fire_var(var, Value(packet));
}

void SeedCore::on_time(const std::string& var) {
  fire_var(var, Value(now_ms()));
}

void SeedCore::on_message(const Value& payload, bool from_harvester,
                          const std::string& from_machine) {
  const CompiledState* st = state();
  if (!started_ || !st) return;
  for (const auto* ev : st->events) {
    if (ev->kind != EventDecl::TriggerKind::kRecv) continue;
    if (ev->from_harvester != from_harvester) continue;
    if (!from_harvester && !ev->from_machine.empty() &&
        ev->from_machine != from_machine)
      continue;
    // Pattern matching: the payload type must match the declared formal.
    if (!Interpreter::matches_type(payload, ev->recv_type)) continue;
    run_handler(ev->actions, ev->recv_var, payload);
    return;
  }
}

void SeedCore::on_realloc() { fire_simple(EventDecl::TriggerKind::kRealloc); }

double SeedCore::utility(const ResourcesValue& r) const {
  const CompiledState* st = state();
  if (!st) return default_utility().utility(r);
  const UtilityAnalysis* ua = st->utility_analysis();
  return ua ? ua->utility(r) : 0;
}

void SeedCore::request_transit(const std::string& state) {
  pending_transit_ = state;
}

}  // namespace farm::almanac::tree
