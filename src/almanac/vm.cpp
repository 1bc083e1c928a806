#include "almanac/vm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

namespace farm::almanac {

namespace {

using K = ExprCode::Kind;

double need_num(const Value& v, const SourceLoc& loc, const char* what) {
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

std::int64_t need_int(const Value& v, const SourceLoc& loc, const char* what) {
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
                           const SourceLoc& loc) {
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

const net::Filter& need_filter(const Value& v, const SourceLoc& loc,
                               const char* what) {
  if (!v.is_filter())
    throw EvalError(std::string(what) + ": expected filter, got " +
                        v.type_name(),
                    loc);
  return v.as_filter();
}

// `<=`, `>=`, `<`, `>`: strings compare lexicographically, anything else
// as numbers (ints promote).
bool compare(BinOp op, const Value& lhs, const Value& rhs,
             const SourceLoc& loc) {
  if (lhs.is_string() && rhs.is_string()) {
    int c = lhs.as_string().compare(rhs.as_string());
    switch (op) {
      case BinOp::kLe:
        return c <= 0;
      case BinOp::kGe:
        return c >= 0;
      case BinOp::kLt:
        return c < 0;
      default:
        return c > 0;
    }
  }
  double a = need_num(lhs, loc, "compare");
  double b = need_num(rhs, loc, "compare");
  switch (op) {
    case BinOp::kLe:
      return a <= b;
    case BinOp::kGe:
      return a >= b;
    case BinOp::kLt:
      return a < b;
    default:
      return a > b;
  }
}

// Builtins check their operands' types: a seed's type error is an
// EvalError its soil reports, never a process abort.
std::vector<Value>& need_list(const Value& v, const SourceLoc& loc,
                              std::string_view what) {
  if (!v.is_list())
    throw EvalError(std::string(what) + ": expected list, got " +
                        v.type_name(),
                    loc);
  return *v.as_list();
}

const std::vector<StatEntry>& need_stats(const Value& v, const SourceLoc& loc,
                                         std::string_view what) {
  if (!v.is_stats())
    throw EvalError(std::string(what) + ": expected stats, got " +
                        v.type_name(),
                    loc);
  return *v.as_stats().entries;
}

std::string key_text(const Value& v) {
  return v.is_string() ? v.as_string() : v.to_string();
}

}  // namespace

Value default_value(TypeName t) {
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

bool matches_type(const Value& v, TypeName t) {
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

// --- Registers ----------------------------------------------------------------

Registers::Registers(const CompiledMachine& machine)
    : code_(machine.code.get()),
      values_(code_->names.size()),
      bound_(code_->names.size(), 0) {}

const Value* Registers::var(std::string_view name) const {
  int slot = code_->var_slot(name);
  return slot >= 0 && bound(static_cast<std::size_t>(slot))
             ? &values_[static_cast<std::size_t>(slot)]
             : nullptr;
}

// --- Frames -------------------------------------------------------------------

// A call's frame on the VM stack: pushed on construction, released (slots
// cleared, stack popped) on destruction, also when an EvalError unwinds.
class Vm::Frame {
 public:
  Frame(Vm& vm, std::size_t size) : vm_(vm), base_(vm.sp_), size_(size) {
    vm.sp_ += size;
    if (vm.stack_.size() < vm.sp_) vm.stack_.resize(vm.sp_);
  }
  ~Frame() {
    for (std::size_t i = base_; i < base_ + size_; ++i)
      if (!vm_.stack_[i].is_nil()) vm_.stack_[i] = Value();
    vm_.sp_ = base_;
  }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;
  std::size_t base() const { return base_; }

 private:
  Vm& vm_;
  std::size_t base_;
  std::size_t size_;
};

namespace {

// Points the VM at a register file for the duration of one entry call.
class RegsScope {
 public:
  RegsScope(Registers*& slot, Registers& regs) : slot_(slot), saved_(slot) {
    slot_ = &regs;
  }
  ~RegsScope() { slot_ = saved_; }

 private:
  Registers*& slot_;
  Registers* saved_;
};

}  // namespace

Vm::Vm(const CompiledMachine& machine, SeedHost* host)
    : machine_(machine), code_(*machine.code), host_(host) {}

void Vm::run(const HandlerCode& handler, Registers& regs,
             const Value& binding) {
  RegsScope scope(regs_, regs);
  Frame frame(*this, handler.frame_size);
  if (handler.binding_slot >= 0)
    stack_[frame.base() + static_cast<std::size_t>(handler.binding_slot)] =
        binding;
  Value ret;
  exec(handler.body, frame.base(), ret);
}

Value Vm::eval(const ExprCode& e, Registers& regs) {
  RegsScope scope(regs_, regs);
  return eval(e, sp_);
}

Value Vm::eval(const Expr& e, Registers& regs) {
  return eval(lower_expr(machine_, e), regs);
}

// --- Expressions ----------------------------------------------------------------

const Value& Vm::reg(const ExprCode& e) const {
  if (!regs_->bound(e.index))
    throw EvalError("undefined variable: " + e.src->name, e.src->loc);
  return (*regs_)[e.index];
}

inline const Value& Vm::ref(const ExprCode& e, std::size_t fp, Temp& tmp) {
  switch (e.kind) {
    case K::kConst:
      return e.src->literal;
    case K::kLocal:
      if (e.in_place) return stack_[fp + e.index];
      break;
    case K::kRegister:
      if (e.in_place) return reg(e);
      break;
    default:
      break;
  }
  return tmp.emplace([&] { return eval(e, fp); });
}

Value Vm::eval(const ExprCode& e, std::size_t fp) {
  switch (e.kind) {
    case K::kConst:
      return e.src->literal;
    case K::kLocal:
      return stack_[fp + e.index];
    case K::kRegister:
      return reg(e);
    case K::kUnbound:
      throw EvalError("undefined variable: " + e.src->name, e.src->loc);
    case K::kField:
      return field(e, fp);
    case K::kBinary:
      return binary(e, fp);
    case K::kNot: {
      Temp tmp;
      const Value& v = ref(e.args[0], fp, tmp);
      if (v.is_bool()) return Value(!v.as_bool());
      if (v.is_filter()) return Value(net::Filter::negate(v.as_filter()));
      throw EvalError("'not' expects bool or filter, got " + v.type_name(),
                      e.src->loc);
    }
    case K::kBuiltin:
      return builtin(e, fp);
    case K::kCall:
      return call(e, fp);
    case K::kBadCall:
      bad_call(e, fp);
    case K::kFilterAtom:
      return filter_atom(e, fp);
    case K::kStruct:
      return struct_init(e, fp);
    case K::kAbsent:
      break;
  }
  throw EvalError("unhandled expression", e.src->loc);
}

Value Vm::binary(const ExprCode& e, std::size_t fp) {
  const SourceLoc& loc = e.src->loc;
  // Short-circuit only applies to boolean operands; filters always need
  // both sides.
  Temp ltmp;
  const Value& lhs = ref(e.args[0], fp, ltmp);
  if (e.op == BinOp::kAnd && lhs.is_bool()) {
    if (!lhs.as_bool()) return Value(false);
    Value rhs = eval(e.args[1], fp);
    if (rhs.is_bool()) return rhs;
    if (rhs.is_filter()) return rhs;  // true AND f == f
    throw EvalError("'and' expects bool or filter operands", loc);
  }
  if (e.op == BinOp::kOr && lhs.is_bool()) {
    if (lhs.as_bool()) return Value(true);
    Value rhs = eval(e.args[1], fp);
    if (rhs.is_bool()) return rhs;
    if (rhs.is_filter()) return rhs;  // false OR f == f
    throw EvalError("'or' expects bool or filter operands", loc);
  }
  Temp rtmp;
  const Value& rhs = ref(e.args[1], fp, rtmp);

  switch (e.op) {
    case BinOp::kAnd:
    case BinOp::kOr: {
      if (lhs.is_filter() || rhs.is_filter()) {
        net::Filter lf = lhs.is_filter() ? lhs.as_filter() : net::Filter{};
        net::Filter rf = rhs.is_filter() ? rhs.as_filter() : net::Filter{};
        if (!lhs.is_filter() && !(lhs.is_bool() && lhs.as_bool()))
          throw EvalError("cannot combine non-filter with filter", loc);
        if (!rhs.is_filter() && !(rhs.is_bool() && rhs.as_bool()))
          throw EvalError("cannot combine filter with non-filter", loc);
        return Value(e.op == BinOp::kAnd ? net::Filter::conj(lf, rf)
                                         : net::Filter::disj(lf, rf));
      }
      throw EvalError("'and'/'or' expect bool or filter operands", loc);
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
        return Value(checked_arith(lhs.as_int(), rhs.as_int(), e.op, loc));
      return Value(need_num(lhs, loc, "+") + need_num(rhs, loc, "+"));
    case BinOp::kSub:
      if (lhs.is_int() && rhs.is_int())
        return Value(checked_arith(lhs.as_int(), rhs.as_int(), e.op, loc));
      return Value(need_num(lhs, loc, "-") - need_num(rhs, loc, "-"));
    case BinOp::kMul:
      if (lhs.is_int() && rhs.is_int())
        return Value(checked_arith(lhs.as_int(), rhs.as_int(), e.op, loc));
      return Value(need_num(lhs, loc, "*") * need_num(rhs, loc, "*"));
    case BinOp::kDiv: {
      double denom = need_num(rhs, loc, "/");
      if (denom == 0) throw EvalError("division by zero", loc);
      if (lhs.is_int() && rhs.is_int()) {
        std::int64_t a = lhs.as_int();
        std::int64_t b = rhs.as_int();
        // INT64_MIN / -1 (and its % probe) overflows int64.
        if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
          throw EvalError("integer overflow in '/'", loc);
        if (a % b == 0) return Value(a / b);
      }
      return Value(need_num(lhs, loc, "/") / denom);
    }
    case BinOp::kEq:
      return Value(lhs.equals(rhs));
    case BinOp::kNe:
      return Value(!lhs.equals(rhs));
    case BinOp::kLe:
    case BinOp::kGe:
    case BinOp::kLt:
    case BinOp::kGt:
      return Value(compare(e.op, lhs, rhs, loc));
  }
  throw EvalError("unhandled binary operator", loc);
}

Value Vm::filter_atom(const ExprCode& e, std::size_t fp) {
  const std::string& name = e.src->name;
  const SourceLoc& loc = e.src->loc;
  if (e.args.empty()) {
    // `port ANY` / `iface ANY`: every switch interface.
    if (e.atom == AtomKind::kPort || e.atom == AtomKind::kIface)
      return Value(net::Filter::any_iface());
    throw EvalError("filter atom '" + name + "' needs an argument", loc);
  }
  Temp tmp;
  const Value& arg = ref(e.args[0], fp, tmp);
  switch (e.atom) {
    case AtomKind::kSrcIp:
    case AtomKind::kDstIp: {
      if (!arg.is_string())
        throw EvalError(name + " expects a string prefix", loc);
      auto p = net::Prefix::parse(arg.as_string());
      if (!p) throw EvalError("malformed prefix: " + arg.as_string(), loc);
      return Value(e.atom == AtomKind::kSrcIp ? net::Filter::src_ip(*p)
                                              : net::Filter::dst_ip(*p));
    }
    case AtomKind::kProto: {
      if (!arg.is_string())
        throw EvalError("proto: expected string, got " + arg.type_name(), loc);
      const std::string& p = arg.as_string();
      if (p == "tcp") return Value(net::Filter::proto(net::Proto::kTcp));
      if (p == "udp") return Value(net::Filter::proto(net::Proto::kUdp));
      if (p == "icmp") return Value(net::Filter::proto(net::Proto::kIcmp));
      throw EvalError("unknown protocol: " + p, loc);
    }
    default:
      break;
  }
  std::int64_t v = need_int(arg, loc, name.c_str());
  const auto port = static_cast<std::uint16_t>(v);
  switch (e.atom) {
    case AtomKind::kPort:
      return Value(net::Filter::l4_port(port));
    case AtomKind::kSrcPort:
      return Value(net::Filter::src_port(port, port));
    case AtomKind::kDstPort:
      return Value(net::Filter::dst_port(port, port));
    case AtomKind::kIface:
      return Value(net::Filter::iface(static_cast<std::int32_t>(v)));
    default:
      throw EvalError("unknown filter atom: " + name, loc);
  }
}

Value Vm::struct_init(const ExprCode& e, std::size_t fp) {
  const SourceLoc& loc = e.src->loc;
  const std::string& name = e.src->name;
  Temp tmp;
  switch (e.st) {
    case StructKind::kPoll:
    case StructKind::kProbe: {
      TriggerSpec spec;
      if (e.args[0].kind == K::kAbsent)
        throw EvalError(name + " requires .ival", loc);
      spec.ival_seconds = need_num(ref(e.args[0], fp, tmp), loc, "ival");
      if (e.args[1].kind != K::kAbsent)
        spec.what = need_filter(ref(e.args[1], fp, tmp), loc, "what");
      return Value(std::move(spec));
    }
    case StructKind::kRule: {
      asic::TcamRule rule;
      if (e.args[0].kind == K::kAbsent)
        throw EvalError("Rule requires .pattern", loc);
      rule.pattern = need_filter(ref(e.args[0], fp, tmp), loc, "pattern");
      if (e.args[1].kind != K::kAbsent) {
        const Value& av = ref(e.args[1], fp, tmp);
        if (!av.is_action())
          throw EvalError("Rule.act must be an action value", loc);
        rule.action = av.as_action().action;
        rule.rate_limit_bps = av.as_action().rate_limit_bps;
      }
      if (e.args[2].kind != K::kAbsent)
        rule.priority = static_cast<int>(
            need_int(ref(e.args[2], fp, tmp), loc, "priority"));
      return Value(std::move(rule));
    }
    case StructKind::kUnknown:
      break;
  }
  throw EvalError("unknown struct type: " + name, loc);
}

Value Vm::field(const ExprCode& e, std::size_t fp) {
  Temp tmp;
  const Value& base = ref(e.args[0], fp, tmp);
  const std::string& f = e.src->name;
  const SourceLoc& loc = e.src->loc;
  if (base.is_resources()) {
    const ResourcesValue& r = base.as_resources();
    switch (e.field) {
      case Field::kVCpu:
        return Value(r.vCPU);
      case Field::kRam:
        return Value(r.RAM);
      case Field::kTcam:
        return Value(r.TCAM);
      case Field::kPcie:
        return Value(r.PCIe);
      default:
        throw EvalError("unknown resource field: " + f, loc);
    }
  }
  if (base.is_packet()) {
    const auto& p = base.as_packet();
    switch (e.field) {
      case Field::kSrcIp:
        return Value(p.src_ip.to_string());
      case Field::kDstIp:
        return Value(p.dst_ip.to_string());
      case Field::kSrcPort:
        return Value(std::int64_t{p.src_port});
      case Field::kDstPort:
        return Value(std::int64_t{p.dst_port});
      case Field::kSize:
        return Value(std::int64_t{p.size_bytes});
      case Field::kProto:
        return Value(p.proto == net::Proto::kTcp   ? "tcp"
                     : p.proto == net::Proto::kUdp ? "udp"
                                                   : "icmp");
      case Field::kSyn:
        return Value(p.flags.syn);
      case Field::kAck:
        return Value(p.flags.ack);
      case Field::kFin:
        return Value(p.flags.fin);
      case Field::kRst:
        return Value(p.flags.rst);
      default:
        throw EvalError("unknown packet field: " + f, loc);
    }
  }
  if (base.is_trigger()) {
    const auto& t = base.as_trigger();
    if (e.field == Field::kIval) return Value(t.ival_seconds);
    if (e.field == Field::kWhat) return Value(t.what);
    throw EvalError("unknown trigger field: " + f, loc);
  }
  if (base.is_rule()) {
    const auto& r = base.as_rule();
    switch (e.field) {
      case Field::kPattern:
        return Value(r.pattern);
      case Field::kAct:
        return Value(ActionValue{r.action, r.rate_limit_bps});
      case Field::kId:
        return Value(static_cast<std::int64_t>(r.id));
      default:
        throw EvalError("unknown rule field: " + f, loc);
    }
  }
  throw EvalError("value of type " + base.type_name() + " has no field " + f,
                  loc);
}

// --- Calls ----------------------------------------------------------------------

Value Vm::call(const ExprCode& e, std::size_t fp) {
  const FunctionCode& f = code_.functions[e.index];
  Frame frame(*this, f.frame_size);
  for (std::size_t i = 0; i < e.args.size(); ++i) {
    Value v = eval(e.args[i], fp);
    stack_[frame.base() + f.param_slots[i]] = std::move(v);
  }
  if (call_depth_ >= kMaxCallDepth)
    throw EvalError("call depth exceeded in " + e.src->name, e.src->loc);
  struct Depth {
    int& d;
    explicit Depth(int& depth) : d(depth) { ++d; }
    ~Depth() { --d; }
  } depth(call_depth_);
  Value ret;
  exec(f.body, frame.base(), ret);
  return ret;
}

void Vm::bad_call(const ExprCode& e, std::size_t fp) {
  for (const auto& a : e.args) eval(a, fp);
  if (e.index == ExprCode::kNoFunction)
    throw EvalError("unknown function: " + e.src->name, e.src->loc);
  throw EvalError("function " + e.src->name + " expects " +
                      std::to_string(code_.functions[e.index].param_slots.size()) +
                      " arguments, got " + std::to_string(e.args.size()),
                  e.src->loc);
}

// The evaluated arguments of a builtin call: each one a slot read in place
// or a value computed into a temporary.
class Vm::Args {
 public:
  Args(const Value* const* argv, std::size_t n) : argv_(argv), n_(n) {}
  std::size_t size() const { return n_; }
  const Value& operator[](std::size_t i) const { return *argv_[i]; }

 private:
  const Value* const* argv_;
  std::size_t n_;
};

Value Vm::builtin(const ExprCode& e, std::size_t fp) {
  const std::size_t n = e.args.size();
  if (n <= kInlineArgs) {
    Temp tmp[kInlineArgs];
    const Value* argv[kInlineArgs];
    for (std::size_t i = 0; i < n; ++i) argv[i] = &ref(e.args[i], fp, tmp[i]);
    return apply(e, Args(argv, n));
  }
  // Only variadic min/max (or a wrong arity) take more.
  std::vector<Temp> tmp(n);
  std::vector<const Value*> argv(n);
  for (std::size_t i = 0; i < n; ++i) argv[i] = &ref(e.args[i], fp, tmp[i]);
  return apply(e, Args(argv.data(), n));
}

Value Vm::apply(const ExprCode& e, const Args& args) {
  const SourceLoc& loc = e.src->loc;
  // Names the builtin in error text; each entry of kBuiltinNames is a
  // NUL-terminated literal.
  const std::string_view name =
      kBuiltinNames[static_cast<std::size_t>(e.builtin)];
  auto arity = [&](std::size_t n) {
    if (args.size() != n)
      throw EvalError(std::string(name) + " expects " + std::to_string(n) +
                          " arguments",
                      loc);
  };
  switch (e.builtin) {
    case Builtin::kRes:
      arity(0);
      return Value(host(loc)->resources());
    case Builtin::kMin:
    case Builtin::kMax: {
      const bool is_min = e.builtin == Builtin::kMin;
      const char* what = name.data();
      if (args.size() < 2)
        throw EvalError(std::string(name) + " expects >= 2 args", loc);
      bool all_int = true;
      for (std::size_t i = 0; i < args.size(); ++i) all_int &= args[i].is_int();
      if (all_int) {
        std::int64_t acc = args[0].as_int();
        for (std::size_t i = 1; i < args.size(); ++i)
          acc = is_min ? std::min(acc, args[i].as_int())
                       : std::max(acc, args[i].as_int());
        return Value(acc);
      }
      double acc = need_num(args[0], loc, what);
      for (std::size_t i = 1; i < args.size(); ++i) {
        double v = need_num(args[i], loc, what);
        acc = is_min ? std::min(acc, v) : std::max(acc, v);
      }
      return Value(acc);
    }
    case Builtin::kAbs:
      arity(1);
      if (args[0].is_int()) {
        std::int64_t v = args[0].as_int();
        if (v == std::numeric_limits<std::int64_t>::min())
          throw EvalError("integer overflow in 'abs'", loc);
        return Value(v < 0 ? -v : v);
      }
      return Value(std::abs(need_num(args[0], loc, "abs")));
    case Builtin::kAddTcamRule: {
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
    case Builtin::kRemoveTcamRule:
      arity(1);
      host(loc)->remove_tcam_rule(need_filter(args[0], loc, "removeTCAMRule"));
      return Value();
    case Builtin::kGetTcamRule: {
      arity(1);
      auto r =
          host(loc)->get_tcam_rule(need_filter(args[0], loc, "getTCAMRule"));
      return r ? Value(*r) : Value();
    }
    case Builtin::kExec:
      arity(1);
      if (!args[0].is_string())
        throw EvalError("exec expects a command string", loc);
      host(loc)->exec(args[0].as_string());
      return Value();
    // --- actions ------------------------------------------------------------
    case Builtin::kActionDrop:
      arity(0);
      return Value(ActionValue{asic::RuleAction::kDrop, 0});
    case Builtin::kActionRateLimit:
      arity(1);
      return Value(ActionValue{asic::RuleAction::kRateLimit,
                               need_num(args[0], loc, "action_rate_limit")});
    case Builtin::kActionCount:
      arity(0);
      return Value(ActionValue{asic::RuleAction::kCount, 0});
    case Builtin::kActionMirror:
      arity(0);
      return Value(ActionValue{asic::RuleAction::kMirror, 0});
    // --- lists --------------------------------------------------------------
    case Builtin::kListNew:
      arity(0);
      return Value::empty_list();
    case Builtin::kListSize:
      arity(1);
      return Value(
          static_cast<std::int64_t>(need_list(args[0], loc, name).size()));
    case Builtin::kIsListEmpty:
      arity(1);
      return Value(need_list(args[0], loc, name).empty());
    case Builtin::kListGet: {
      arity(2);
      const auto& l = need_list(args[0], loc, name);
      auto i = need_int(args[1], loc, "list_get");
      if (i < 0 || static_cast<std::size_t>(i) >= l.size())
        throw EvalError("list index out of range", loc);
      return l[static_cast<std::size_t>(i)];
    }
    case Builtin::kListAppend:
      arity(2);
      need_list(args[0], loc, name).push_back(args[1]);
      return args[0];
    case Builtin::kListClear:
      arity(1);
      need_list(args[0], loc, name).clear();
      return args[0];
    case Builtin::kListContains:
      arity(2);
      for (const auto& v : need_list(args[0], loc, name))
        if (v.equals(args[1])) return Value(true);
      return Value(false);
    case Builtin::kListIndexOf: {
      arity(2);
      const auto& l = need_list(args[0], loc, name);
      for (std::size_t i = 0; i < l.size(); ++i)
        if (l[i].equals(args[1])) return Value(static_cast<std::int64_t>(i));
      return Value(std::int64_t{-1});
    }
    case Builtin::kListSet: {
      arity(3);
      auto& l = need_list(args[0], loc, name);
      auto i = need_int(args[1], loc, "list_set");
      if (i < 0 || static_cast<std::size_t>(i) >= l.size())
        throw EvalError("list index out of range", loc);
      l[static_cast<std::size_t>(i)] = args[2];
      return args[0];
    }
    // --- statistics snapshots -------------------------------------------------
    case Builtin::kStatsSize:
      arity(1);
      return Value(
          static_cast<std::int64_t>(need_stats(args[0], loc, name).size()));
    case Builtin::kStatsIface:
    case Builtin::kStatsBytes:
    case Builtin::kStatsPackets:
    case Builtin::kStatsSubject: {
      arity(2);
      const auto& entries = need_stats(args[0], loc, name);
      auto i = need_int(args[1], loc, name.data());
      if (i < 0 || static_cast<std::size_t>(i) >= entries.size())
        throw EvalError("stats index out of range", loc);
      const StatEntry& s = entries[static_cast<std::size_t>(i)];
      switch (e.builtin) {
        case Builtin::kStatsIface:
          return Value(std::int64_t{s.iface});
        case Builtin::kStatsBytes:
          return Value(static_cast<std::int64_t>(s.bytes));
        case Builtin::kStatsPackets:
          return Value(static_cast<std::int64_t>(s.packets));
        default:
          return Value(s.subject);
      }
    }
    // --- sketches (§VIII extension) ------------------------------------------
    case Builtin::kCmsNew: {
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
    case Builtin::kCmsAdd:
      arity(3);
      if (!args[0].is_sketch() || !args[0].as_sketch().cms)
        throw EvalError("cms_add expects a count-min sketch", loc);
      args[0].as_sketch().cms->add(
          key_text(args[1]),
          static_cast<std::uint64_t>(need_int(args[2], loc, "cms_add")));
      return Value();
    case Builtin::kCmsEstimate:
      arity(2);
      if (!args[0].is_sketch() || !args[0].as_sketch().cms)
        throw EvalError("cms_estimate expects a count-min sketch", loc);
      return Value(static_cast<std::int64_t>(
          args[0].as_sketch().cms->estimate(key_text(args[1]))));
    case Builtin::kCmsClear:
      arity(1);
      if (!args[0].is_sketch() || !args[0].as_sketch().cms)
        throw EvalError("cms_clear expects a count-min sketch", loc);
      args[0].as_sketch().cms->clear();
      return Value();
    case Builtin::kMgNew: {
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
    case Builtin::kMgAdd:
      arity(3);
      if (!args[0].is_sketch() || !args[0].as_sketch().mg)
        throw EvalError("mg_add expects a misra-gries summary", loc);
      args[0].as_sketch().mg->add(
          key_text(args[1]),
          static_cast<std::uint64_t>(need_int(args[2], loc, "mg_add")));
      return Value();
    case Builtin::kMgEstimate:
      arity(2);
      if (!args[0].is_sketch() || !args[0].as_sketch().mg)
        throw EvalError("mg_estimate expects a misra-gries summary", loc);
      return Value(static_cast<std::int64_t>(
          args[0].as_sketch().mg->estimate(key_text(args[1]))));
    case Builtin::kMgHitters: {
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
    case Builtin::kMgClear:
      arity(1);
      if (!args[0].is_sketch() || !args[0].as_sketch().mg)
        throw EvalError("mg_clear expects a misra-gries summary", loc);
      args[0].as_sketch().mg->clear();
      return Value();
    case Builtin::kHllNew: {
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
    case Builtin::kHllAdd:
      arity(2);
      if (!args[0].is_sketch() || !args[0].as_sketch().hll)
        throw EvalError("hll_add expects a HyperLogLog", loc);
      args[0].as_sketch().hll->add(key_text(args[1]));
      return Value();
    case Builtin::kHllEstimate:
      arity(1);
      if (!args[0].is_sketch() || !args[0].as_sketch().hll)
        throw EvalError("hll_estimate expects a HyperLogLog", loc);
      return Value(
          static_cast<std::int64_t>(args[0].as_sketch().hll->estimate() + 0.5));
    case Builtin::kHllClear:
      arity(1);
      if (!args[0].is_sketch() || !args[0].as_sketch().hll)
        throw EvalError("hll_clear expects a HyperLogLog", loc);
      args[0].as_sketch().hll->clear();
      return Value();
    // --- conversions & misc ---------------------------------------------------
    case Builtin::kIsNil:
      arity(1);
      return Value(args[0].is_nil());
    case Builtin::kToLong: {
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
    case Builtin::kToFloat:
      arity(1);
      return Value(need_num(args[0], loc, "to_float"));
    case Builtin::kToStr:
      arity(1);
      return Value(key_text(args[0]));
    case Builtin::kIfaceFilter:
      arity(1);
      return Value(net::Filter::iface(
          static_cast<std::int32_t>(need_int(args[0], loc, "iface_filter"))));
    case Builtin::kNowMs:
      arity(0);
      return Value(host(loc)->now_ms());
    case Builtin::kSwitchId:
      arity(0);
      return Value(host(loc)->switch_id());
    case Builtin::kLog:
      arity(1);
      host(loc)->log(key_text(args[0]));
      return Value();
  }
  throw EvalError("unhandled builtin", loc);
}

// --- Statements -----------------------------------------------------------------

namespace {

// Writes an evaluated operand into a slot: moved when it was computed
// into `tmp`, copied when it was read in place. The slot is indexed after
// the operand ran, since a call may have grown the frame stack.
template <class Temp>
void store(Value& slot, const Value& v, Temp& tmp) {
  if (tmp)
    slot = std::move(*tmp);
  else
    slot = v;
}

}  // namespace

bool Vm::test(const StmtCode& s, std::size_t fp, const char* what) {
  const ExprCode& c = s.expr;
  // A comparison yields its truth value without materializing a bool.
  if (c.kind == K::kBinary && (c.op == BinOp::kLt || c.op == BinOp::kLe ||
                               c.op == BinOp::kGt || c.op == BinOp::kGe)) {
    Temp ltmp;
    const Value& lhs = ref(c.args[0], fp, ltmp);
    Temp rtmp;
    const Value& rhs = ref(c.args[1], fp, rtmp);
    return compare(c.op, lhs, rhs, c.src->loc);
  }
  Temp tmp;
  const Value& v = ref(c, fp, tmp);
  if (!v.is_bool()) throw EvalError(std::string(what) + " must be bool", s.src->loc);
  return v.as_bool();
}

bool Vm::exec(const std::vector<StmtCode>& body, std::size_t fp, Value& ret) {
  using S = StmtCode::Kind;
  for (const StmtCode& s : body) {
    switch (s.kind) {
      case S::kDeclare: {
        if (s.expr.kind == K::kAbsent) {
          stack_[fp + s.slot] = default_value(s.src->decl_type);
          break;
        }
        Temp tmp;
        const Value& v = ref(s.expr, fp, tmp);
        store(stack_[fp + s.slot], v, tmp);
        break;
      }
      case S::kAssign: {
        Temp tmp;
        const Value& v = ref(s.expr, fp, tmp);
        if (!s.to_register) {
          store(stack_[fp + s.slot], v, tmp);
        } else if (regs_->bound(s.slot)) {
          store((*regs_)[s.slot], v, tmp);
        } else {
          throw EvalError("assignment to undeclared variable: " + s.src->target,
                          s.src->loc);
        }
        // Trigger variables re-arm their timers on reassignment.
        if (s.trigger && host_) host_->trigger_updated(s.src->target);
        break;
      }
      case S::kAssignUndeclared:
        eval(s.expr, fp);
        throw EvalError("assignment to undeclared variable: " + s.src->target,
                        s.src->loc);
      case S::kIf:
        if (exec(test(s, fp, "if condition") ? s.body : s.else_body, fp, ret))
          return true;
        break;
      case S::kWhile: {
        std::int64_t guard = 0;
        for (;;) {
          if (!test(s, fp, "while condition")) break;
          if (exec(s.body, fp, ret)) return true;
          if (++guard > kMaxLoopIterations)
            throw EvalError("while loop exceeded iteration budget", s.src->loc);
        }
        break;
      }
      case S::kTransit: {
        std::size_t target = s.slot;
        if (s.slot == StmtCode::kDynamicTarget) {
          Temp tmp;
          const Value& v = ref(s.expr, fp, tmp);
          if (!v.is_string())
            throw EvalError("transit target must be a state name", s.src->loc);
          // A computed target is a runtime string: the one place the VM
          // reads the state table by name.
          int found = code_.state_index(v.as_string());
          if (found < 0)
            throw EvalError("transit to unknown state: " + v.as_string(), s.src->loc);
          target = static_cast<std::size_t>(found);
        }
        if (host_) host_->request_transit(code_.states[target].name);
        break;
      }
      case S::kSend: {
        Temp tmp;
        const Value& payload = ref(s.expr, fp, tmp);
        if (s.dst.kind == K::kAbsent) {
          if (host_) host_->send(payload, s.send);
          break;
        }
        SendTarget target = s.send;
        target.dst = need_int(eval(s.dst, fp), s.src->loc, "send @dst");
        if (host_) host_->send(payload, target);
        break;
      }
      case S::kReturn:
        if (s.expr.kind != K::kAbsent) ret = eval(s.expr, fp);
        return true;
      case S::kExpr:
        eval(s.expr, fp);
        break;
    }
  }
  return false;
}

}  // namespace farm::almanac
