// Winnow engine (DESIGN.md §15): interval + constancy fixpoint over the
// state graph, final fact-collection pass, and the AI001..AI005 pass.
#include "almanac/verify/absint.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "almanac/vm.h"
#include "almanac/verify/passes.h"

namespace farm::almanac::verify::absint {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// 2^63 rounded; values past the margin are provably outside int64.
constexpr double kI64Lo = -9223372036854775808.0;
constexpr double kI64Hi = 9223372036854775808.0;
constexpr double kOverflowMargin = 9.3e18;
// Integral singletons beyond 2^53 lose precision in doubles; never fold.
constexpr double kExactIntLimit = 9007199254740992.0;

// Join count per state before widening kicks in.
constexpr int kWidenAfter = 3;
// Hard cap on handler transfer evaluations; the engine abandons the
// fixpoint (hit_cap = true, no facts) rather than looping forever.
constexpr int kIterationCap = 20000;
// Abstract inlining depth for user-function calls; beyond it the callee
// havocs machine registers and returns Top.
constexpr int kMaxInlineDepth = 8;

// Threshold ladder for widening: unstable bounds jump to the next rung
// instead of straight to infinity, so loop guards like `i < 48` stay
// provable after stabilization.
const double kRungs[] = {0,    1,    2,     4,     8,    16,   32,
                         48,   64,   128,   256,   1024, 4096, 65536,
                         1e6,  1e9,  4.3e9, 1e12,  1e15, kI64Hi};

double widen_hi(double hi) {
  for (double r : kRungs)
    if (hi <= r) return r;
  return kInf;
}
double widen_lo(double lo) {
  for (auto it = std::rbegin(kRungs); it != std::rend(kRungs); ++it)
    if (lo >= -*it) return -*it;
  return -kInf;
}

// Outward-round endpoints past the exact-integer range of a double.
// Concrete int64 arithmetic is exact while double endpoint arithmetic
// rounds to nearest, and rounding monotonicity only protects float
// semantics (where the interpreter itself computes in doubles) — e.g.
// 2^62 - 36 rounds straight back to 2^62, so a register concretely
// drifting downward would escape a "singleton" envelope. The relative
// 1e-12 slack dwarfs any accumulated rounding error and is negligible
// against the 9.3e18 overflow margin.
Interval iv_outward(Interval v) {
  if (std::isfinite(v.lo) && std::abs(v.lo) >= kExactIntLimit)
    v.lo -= std::abs(v.lo) * 1e-12;
  if (std::isfinite(v.hi) && std::abs(v.hi) >= kExactIntLimit)
    v.hi += std::abs(v.hi) * 1e-12;
  return v;
}

std::string bound_str(double b) {
  if (b == kInf) return "+inf";
  if (b == -kInf) return "-inf";
  if (std::abs(b) < kExactIntLimit && b == std::floor(b))
    return std::to_string(static_cast<std::int64_t>(b));
  return std::to_string(b);
}

}  // namespace

// --- Interval ---------------------------------------------------------------

Interval Interval::top() { return {-kInf, kInf}; }
Interval Interval::point(double v) { return {v, v}; }
bool Interval::is_point() const { return lo == hi && std::isfinite(lo); }
bool Interval::contains(double v) const { return v >= lo && v <= hi; }
std::string Interval::to_string() const {
  return "[" + bound_str(lo) + ", " + bound_str(hi) + "]";
}

// --- AbsVal -----------------------------------------------------------------

AbsVal AbsVal::bottom() {
  AbsVal v;
  v.kind_ = Kind::kBottom;
  return v;
}
AbsVal AbsVal::top() { return AbsVal(); }
AbsVal AbsVal::num_int(double lo, double hi) {
  AbsVal v;
  v.kind_ = Kind::kNum;
  v.iv_ = {lo, hi};
  v.is_int_ = true;
  return v;
}
AbsVal AbsVal::num_float(double lo, double hi) {
  AbsVal v;
  v.kind_ = Kind::kNum;
  v.iv_ = {lo, hi};
  v.is_int_ = false;
  return v;
}
AbsVal AbsVal::boolean(bool b) {
  AbsVal v;
  v.kind_ = Kind::kConst;
  v.cbool_ = b;
  return v;
}
AbsVal AbsVal::string_const(std::string s) {
  AbsVal v;
  v.kind_ = Kind::kConst;
  v.is_string_ = true;
  v.cstr_ = std::move(s);
  return v;
}

AbsVal AbsVal::of_value(const Value& v) {
  if (v.is_bool()) return boolean(v.as_bool());
  if (v.is_int()) return num_int(static_cast<double>(v.as_int()),
                                 static_cast<double>(v.as_int()));
  if (v.is_float()) {
    if (!std::isfinite(v.as_float())) return num_float(-kInf, kInf);
    return num_float(v.as_float(), v.as_float());
  }
  if (v.is_string()) return string_const(v.as_string());
  return top();
}

bool AbsVal::is_const_bool() const {
  return kind_ == Kind::kConst && !is_string_;
}
bool AbsVal::const_bool() const { return cbool_; }
bool AbsVal::is_const_string() const {
  return kind_ == Kind::kConst && is_string_;
}
const std::string& AbsVal::const_string() const { return cstr_; }

bool AbsVal::singleton(Value* out) const {
  if (is_const_bool()) {
    *out = Value(cbool_);
    return true;
  }
  if (is_const_string()) {
    *out = Value(cstr_);
    return true;
  }
  if (kind_ == Kind::kNum && iv_.is_point()) {
    // Beyond 2^53 a double point can alias an exact int64 the runtime
    // would print differently — never treat it as a foldable constant,
    // int-flagged or not.
    if (std::abs(iv_.lo) >= kExactIntLimit) return false;
    if (is_int_) {
      if (iv_.lo != std::floor(iv_.lo)) return false;
      *out = Value(static_cast<std::int64_t>(iv_.lo));
      return true;
    }
    *out = Value(iv_.lo);
    return true;
  }
  return false;
}

AbsVal AbsVal::join(const AbsVal& o) const {
  if (kind_ == Kind::kBottom) return o;
  if (o.kind_ == Kind::kBottom) return *this;
  if (kind_ == Kind::kTop || o.kind_ == Kind::kTop) return top();
  if (kind_ == Kind::kConst && o.kind_ == Kind::kConst) {
    if (is_string_ != o.is_string_) return top();
    if (is_string_) return cstr_ == o.cstr_ ? *this : top();
    return cbool_ == o.cbool_ ? *this : top();
  }
  if (kind_ == Kind::kNum && o.kind_ == Kind::kNum) {
    AbsVal v;
    v.kind_ = Kind::kNum;
    v.iv_ = {std::min(iv_.lo, o.iv_.lo), std::max(iv_.hi, o.iv_.hi)};
    v.is_int_ = is_int_ && o.is_int_;
    return v;
  }
  return top();
}

bool AbsVal::leq(const AbsVal& o) const {
  if (kind_ == Kind::kBottom || o.kind_ == Kind::kTop) return true;
  if (o.kind_ == Kind::kBottom || kind_ == Kind::kTop) return false;
  if (kind_ == Kind::kConst && o.kind_ == Kind::kConst)
    return same(o);
  if (kind_ == Kind::kNum && o.kind_ == Kind::kNum)
    return iv_.lo >= o.iv_.lo && iv_.hi <= o.iv_.hi &&
           (o.is_int_ ? is_int_ : true);
  return false;
}

AbsVal AbsVal::meet(const AbsVal& o) const {
  if (o.leq(*this)) return o;
  return *this;
}

AbsVal AbsVal::widen(const AbsVal& next) const {
  if (kind_ == Kind::kBottom) return next;
  if (next.leq(*this)) return *this;
  if (kind_ == Kind::kNum && next.kind_ == Kind::kNum) {
    AbsVal v;
    v.kind_ = Kind::kNum;
    v.is_int_ = is_int_ && next.is_int_;
    v.iv_.lo = next.iv_.lo < iv_.lo ? widen_lo(next.iv_.lo) : iv_.lo;
    v.iv_.hi = next.iv_.hi > iv_.hi ? widen_hi(next.iv_.hi) : iv_.hi;
    return v;
  }
  return top();
}

bool AbsVal::same(const AbsVal& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::kBottom:
    case Kind::kTop:
      return true;
    case Kind::kConst:
      if (is_string_ != o.is_string_) return false;
      return is_string_ ? cstr_ == o.cstr_ : cbool_ == o.cbool_;
    case Kind::kNum:
      return iv_.lo == o.iv_.lo && iv_.hi == o.iv_.hi &&
             is_int_ == o.is_int_;
  }
  return false;
}

bool AbsVal::admits(const Value& v) const {
  switch (kind_) {
    case Kind::kTop:
      return true;
    case Kind::kBottom:
      return false;
    case Kind::kConst:
      if (is_string_) return v.is_string() && v.as_string() == cstr_;
      return v.is_bool() && v.as_bool() == cbool_;
    case Kind::kNum: {
      if (is_int_ && !v.is_int()) return false;
      if (!v.is_numeric()) return false;
      double d = v.as_float();
      return d >= iv_.lo && d <= iv_.hi;
    }
  }
  return false;
}

std::string AbsVal::to_string() const {
  switch (kind_) {
    case Kind::kBottom:
      return "bot";
    case Kind::kTop:
      return "top";
    case Kind::kConst:
      return is_string_ ? "\"" + cstr_ + "\"" : (cbool_ ? "true" : "false");
    case Kind::kNum:
      return std::string(is_int_ ? "int" : "num") + iv_.to_string();
  }
  return "?";
}

// --- Purity -----------------------------------------------------------------

bool expr_is_pure(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kVarRef:
      return true;
    case Expr::Kind::kBinary:
    case Expr::Kind::kNot:
    case Expr::Kind::kFieldAccess:
      break;
    case Expr::Kind::kCall:
      if (e.name != "min" && e.name != "max" && e.name != "abs") return false;
      break;
    default:
      return false;
  }
  for (const auto& a : e.args)
    if (a && !expr_is_pure(*a)) return false;
  return true;
}

namespace {

// --- Abstract environments --------------------------------------------------

// Scope stack by value; function-call scopes carry a barrier so lookups
// skip caller locals and land on the machine registers (scope 0), exactly
// like the interpreter chains function envs onto the root env.
struct Scope {
  std::map<std::string, AbsVal> vars;
  bool fn_barrier = false;
};

struct AEnv {
  std::vector<Scope> scopes;

  AbsVal* find(const std::string& n) {
    for (int i = static_cast<int>(scopes.size()) - 1; i >= 0; --i) {
      auto it = scopes[i].vars.find(n);
      if (it != scopes[i].vars.end()) return &it->second;
      if (scopes[i].fn_barrier && i > 0) {
        auto jt = scopes[0].vars.find(n);
        return jt != scopes[0].vars.end() ? &jt->second : nullptr;
      }
    }
    return nullptr;
  }
  void define(const std::string& n, AbsVal v) {
    scopes.back().vars[n] = std::move(v);
  }
  void assign(const std::string& n, AbsVal v) {
    if (AbsVal* slot = find(n))
      *slot = std::move(v);
    else
      define(n, std::move(v));
  }
  void havoc_machine() {
    for (auto& [k, v] : scopes[0].vars) v = AbsVal::top();
  }
};

void join_maps(std::map<std::string, AbsVal>& into,
               const std::map<std::string, AbsVal>& from) {
  for (const auto& [k, v] : from) {
    auto it = into.find(k);
    if (it == into.end())
      into.emplace(k, v);
    else
      it->second = it->second.join(v);
  }
}

AEnv join_envs(const AEnv& a, const AEnv& b) {
  AEnv out = a;
  for (std::size_t i = 0; i < out.scopes.size() && i < b.scopes.size(); ++i)
    join_maps(out.scopes[i].vars, b.scopes[i].vars);
  return out;
}

bool env_same(const AEnv& a, const AEnv& b) {
  if (a.scopes.size() != b.scopes.size()) return false;
  for (std::size_t i = 0; i < a.scopes.size(); ++i) {
    const auto& x = a.scopes[i].vars;
    const auto& y = b.scopes[i].vars;
    if (x.size() != y.size()) return false;
    auto it = x.begin();
    auto jt = y.begin();
    for (; it != x.end(); ++it, ++jt)
      if (it->first != jt->first || !it->second.same(jt->second)) return false;
  }
  return true;
}

AEnv widen_envs(const AEnv& cur, const AEnv& next) {
  AEnv out = cur;
  for (std::size_t i = 0; i < out.scopes.size() && i < next.scopes.size();
       ++i) {
    for (const auto& [k, v] : next.scopes[i].vars) {
      auto it = out.scopes[i].vars.find(k);
      if (it == out.scopes[i].vars.end())
        out.scopes[i].vars.emplace(k, v);
      else
        it->second = it->second.widen(v);
    }
  }
  return out;
}

// --- Interval arithmetic helpers --------------------------------------------

double mul_bound(double a, double b) {
  if (a == 0 || b == 0) return 0;
  return a * b;
}

Interval iv_add(Interval a, Interval b) { return {a.lo + b.lo, a.hi + b.hi}; }
Interval iv_sub(Interval a, Interval b) { return {a.lo - b.hi, a.hi - b.lo}; }
Interval iv_mul(Interval a, Interval b) {
  double c[4] = {mul_bound(a.lo, b.lo), mul_bound(a.lo, b.hi),
                 mul_bound(a.hi, b.lo), mul_bound(a.hi, b.hi)};
  Interval r{c[0], c[0]};
  for (double v : c) {
    if (std::isnan(v)) return Interval::top();
    r.lo = std::min(r.lo, v);
    r.hi = std::max(r.hi, v);
  }
  return r;
}
// Divisor interval must not contain zero.
Interval iv_div(Interval a, Interval b) {
  double c[4] = {a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi};
  Interval r{c[0], c[0]};
  for (double v : c) {
    if (std::isnan(v)) return Interval::top();
    r.lo = std::min(r.lo, v);
    r.hi = std::max(r.hi, v);
  }
  return r;
}

struct FnCtx {
  AbsVal ret = AbsVal::bottom();
  bool may_fallthrough = false;
};

struct ExecFlags {
  bool definitely_returned = false;
};

// --- The engine -------------------------------------------------------------

class Engine {
 public:
  Engine(const CompiledMachine& m, const AbsintOptions& opts, Analysis& out)
      : m_(m), opts_(opts), out_(out) {}

  void run() {
    AEnv env0 = initial_env();
    in_[m_.initial_state] = env0.scopes[0].vars;
    std::deque<std::string> wl{m_.initial_state};
    std::set<std::string> queued{m_.initial_state};

    while (!wl.empty()) {
      std::string s = wl.front();
      wl.pop_front();
      queued.erase(s);
      const CompiledState* cs = m_.state(s);
      if (!cs) continue;
      for (const auto* ev : cs->events) {
        if (++out_.iterations > kIterationCap) {
          out_.hit_cap = true;
          return;
        }
        std::map<std::string, AbsVal> self;
        std::map<std::string, AbsVal> transit;
        std::set<std::string> targets;
        bool dynamic = false;
        run_handler(*ev, in_[s], self, transit, targets, dynamic);
        // What a transit target sees is the env at the point the pending
        // transit is applied — any prefix of the handler after the transit
        // statement (the run may be cut short by an EvalError) — pushed
        // through the old state's exit handlers.
        std::map<std::string, AbsVal> exited;
        if (dynamic || !targets.empty()) exited = push_exit(*cs, transit);
        auto contribute = [&](const std::string& t,
                              const std::map<std::string, AbsVal>& result) {
          auto it = in_.find(t);
          bool changed = false;
          if (it == in_.end()) {
            in_[t] = result;
            changed = true;
          } else {
            std::map<std::string, AbsVal> joined = it->second;
            join_maps(joined, result);
            int jc = ++join_count_[t];
            if (jc > kWidenAfter) {
              for (auto& [k, v] : joined) {
                auto old = it->second.find(k);
                if (old != it->second.end()) {
                  AbsVal w = old->second.widen(v);
                  if (!w.same(v)) ++out_.widen_applications;
                  v = std::move(w);
                }
              }
            }
            changed = !maps_same(it->second, joined);
            if (changed) it->second = std::move(joined);
          }
          if (changed && queued.insert(t).second) wl.push_back(t);
        };
        contribute(s, self);
        // A self-transit is consumed without running exit/enter handlers,
        // so the self contribution already covers it.
        if (dynamic) {
          for (const auto& st : m_.states)
            if (st.name != s) contribute(st.name, exited);
        } else {
          for (const auto& t : targets)
            if (t != s) contribute(t, exited);
        }
      }
    }

    // One narrowing sweep: recompute F(fixpoint) without widening and keep
    // the tighter comparable bound per register.
    std::map<std::string, std::map<std::string, AbsVal>> narrow;
    narrow[m_.initial_state] = env0.scopes[0].vars;
    for (auto& [s, entry] : in_) {
      const CompiledState* cs = m_.state(s);
      if (!cs) continue;
      for (const auto* ev : cs->events) {
        if (++out_.iterations > kIterationCap) {
          out_.hit_cap = true;
          return;
        }
        std::map<std::string, AbsVal> self;
        std::map<std::string, AbsVal> transit;
        std::set<std::string> targets;
        bool dynamic = false;
        run_handler(*ev, entry, self, transit, targets, dynamic);
        std::map<std::string, AbsVal> exited;
        if (dynamic || !targets.empty()) exited = push_exit(*cs, transit);
        auto land = [&](const std::string& t,
                        const std::map<std::string, AbsVal>& result) {
          auto it = narrow.find(t);
          if (it == narrow.end())
            narrow[t] = result;
          else
            join_maps(it->second, result);
        };
        land(s, self);
        if (dynamic) {
          for (const auto& st : m_.states)
            if (st.name != s) land(st.name, exited);
        } else {
          for (const auto& t : targets)
            if (t != s) land(t, exited);
        }
      }
    }
    for (auto& [s, entry] : in_) {
      auto it = narrow.find(s);
      if (it == narrow.end()) continue;
      for (auto& [k, v] : entry) {
        auto jt = it->second.find(k);
        if (jt != it->second.end()) v = v.meet(jt->second);
      }
    }

    // Final fact-collection pass over the narrowed environments.
    recording_ = true;
    for (const auto& st : m_.states) {
      auto it = in_.find(st.name);
      if (it == in_.end()) continue;
      for (const auto* ev : st.events) {
        std::map<std::string, AbsVal> self;
        std::map<std::string, AbsVal> transit;
        std::set<std::string> targets;
        bool dynamic = false;
        run_handler(*ev, it->second, self, transit, targets, dynamic);
      }
    }

    for (auto& [s, entry] : in_) {
      out_.reachable_states.insert(s);
      out_.state_entry[s] = entry;
    }
    for (const Expr* e : overflow_seen_) {
      if (overflow_refuted_.count(e)) continue;
      out_.overflow_nodes.insert(e);
      auto it = overflow_ranges_.find(e);
      if (it != overflow_ranges_.end()) out_.overflow_ranges.emplace(e, it->second);
    }
    for (const Expr* e : divzero_seen_)
      if (!divzero_refuted_.count(e)) out_.div_by_zero_nodes.insert(e);
    for (auto& [a, trips] : loop_trips_)
      if (!loop_unbounded_.count(a)) out_.loop_bounds[a] = trips;
  }

 private:
  static bool maps_same(const std::map<std::string, AbsVal>& a,
                        const std::map<std::string, AbsVal>& b) {
    if (a.size() != b.size()) return false;
    auto it = a.begin();
    auto jt = b.begin();
    for (; it != a.end(); ++it, ++jt)
      if (it->first != jt->first || !it->second.same(jt->second)) return false;
    return true;
  }

  AEnv initial_env() {
    AEnv env;
    env.scopes.emplace_back();
    for (const auto* v : m_.vars) {
      if (v->trigger) {
        env.define(v->name, AbsVal::top());
        continue;
      }
      if (v->external) {
        auto it = opts_.externals.find(v->name);
        env.define(v->name,
                   it != opts_.externals.end() ? AbsVal::of_value(it->second)
                                               : AbsVal::top());
        continue;
      }
      AbsVal init = AbsVal::of_value(default_value(v->type));
      if (v->init) init = eval(*v->init, env);
      env.define(v->name, std::move(init));
    }
    return env;
  }

  // Runs one handler abstractly. `self` receives the join of the machine
  // scope at *every* statement boundary — a handler may be cut short at any
  // point by an EvalError (caught by the runtime, leaving the mutations made
  // so far in place), so the residency contribution must cover every prefix
  // of the run, not just the final env. `transit` receives the same joins
  // restricted to points at or after the first recorded transit: the env a
  // pending transit is applied with is some such prefix.
  void run_handler(const EventDecl& ev,
                   const std::map<std::string, AbsVal>& entry,
                   std::map<std::string, AbsVal>& self,
                   std::map<std::string, AbsVal>& transit,
                   std::set<std::string>& targets, bool& dynamic) {
    AEnv env;
    env.scopes.emplace_back();
    env.scopes[0].vars = entry;
    env.scopes.emplace_back();
    if (ev.kind == EventDecl::TriggerKind::kVarTrigger && !ev.as_var.empty())
      env.define(ev.as_var, AbsVal::top());
    if (ev.kind == EventDecl::TriggerKind::kRecv && !ev.recv_var.empty())
      env.define(ev.recv_var, AbsVal::top());
    cur_targets_ = &targets;
    cur_dynamic_ = &dynamic;
    acc_self_ = &self;
    acc_transit_ = &transit;
    transit_seen_ = false;
    ExecFlags fl;
    exec(ev.actions, env, nullptr, fl);
    accumulate(env);  // final env; also covers the zero-action handler
    cur_targets_ = nullptr;
    cur_dynamic_ = nullptr;
    acc_self_ = nullptr;
    acc_transit_ = nullptr;
    transit_seen_ = false;
  }

  // Pushes a transit contribution through the exit handlers of the state
  // being left, mirroring the seed core's transit chain (seed_core.cpp):
  // each exit handler runs in turn (possibly cut short by a caught EvalError), so the
  // accumulator both seeds the next handler and absorbs every intermediate
  // env. Transit edges recorded *inside* exit handlers are not collected
  // here — the worklist runs exit events independently from in_[s] (which
  // contains every env this push starts from) and picks them up there.
  std::map<std::string, AbsVal> push_exit(const CompiledState& cs,
                                          std::map<std::string, AbsVal> acc) {
    for (const auto* ev : cs.events) {
      if (ev->kind != EventDecl::TriggerKind::kExit) continue;
      AEnv env;
      env.scopes.emplace_back();
      env.scopes[0].vars = acc;
      env.scopes.emplace_back();
      auto* saved_self = acc_self_;
      auto* saved_transit = acc_transit_;
      bool saved_seen = transit_seen_;
      auto* saved_targets = cur_targets_;
      auto* saved_dynamic = cur_dynamic_;
      acc_self_ = &acc;
      acc_transit_ = nullptr;
      transit_seen_ = false;
      cur_targets_ = nullptr;
      cur_dynamic_ = nullptr;
      ExecFlags fl;
      exec(ev->actions, env, nullptr, fl);
      accumulate(env);
      acc_self_ = saved_self;
      acc_transit_ = saved_transit;
      transit_seen_ = saved_seen;
      cur_targets_ = saved_targets;
      cur_dynamic_ = saved_dynamic;
    }
    return acc;
  }

  void accumulate(const AEnv& env) {
    if (!acc_self_ || env.scopes.empty()) return;
    join_maps(*acc_self_, env.scopes[0].vars);
    if (transit_seen_ && acc_transit_)
      join_maps(*acc_transit_, env.scopes[0].vars);
  }

  // --- statements -----------------------------------------------------------

  ExecFlags exec(const std::vector<ActionPtr>& actions, AEnv& env, FnCtx* fn,
                 ExecFlags& flags) {
    for (const auto& ap : actions) {
      if (!ap) continue;
      const Action& a = *ap;
      switch (a.kind) {
        case Action::Kind::kDeclare: {
          AbsVal v = a.expr
                         ? eval(*a.expr, env)
                         : AbsVal::of_value(default_value(
                               a.decl_type));
          env.define(a.target, std::move(v));
          break;
        }
        case Action::Kind::kAssign:
          env.assign(a.target, a.expr ? eval(*a.expr, env) : AbsVal::top());
          break;
        case Action::Kind::kIf:
          exec_if(a, env, fn, flags);
          break;
        case Action::Kind::kWhile:
          exec_while(a, env, fn, flags);
          break;
        case Action::Kind::kTransit:
          exec_transit(a, env);
          break;
        case Action::Kind::kSend:
          if (a.expr) eval(*a.expr, env);
          if (a.to_dst) eval(*a.to_dst, env);
          break;
        case Action::Kind::kReturn: {
          AbsVal v = a.expr ? eval(*a.expr, env) : AbsVal::top();
          if (fn) fn->ret = fn->ret.join(v);
          flags.definitely_returned = true;
          return flags;
        }
        case Action::Kind::kExprStmt:
          if (a.expr) eval(*a.expr, env);
          break;
      }
      // Prefix-env accumulation: any later statement may throw at runtime,
      // freezing the machine scope as of this point (see run_handler).
      accumulate(env);
      if (flags.definitely_returned) return flags;
    }
    return flags;
  }

  void exec_if(const Action& a, AEnv& env, FnCtx* fn, ExecFlags& flags) {
    AbsVal c = a.expr ? eval(*a.expr, env) : AbsVal::top();
    if (c.is_const_bool()) {
      const auto& branch = c.const_bool() ? a.body : a.else_body;
      env.scopes.emplace_back();
      exec(branch, env, fn, flags);
      env.scopes.pop_back();
      return;
    }
    AEnv then_env = env;
    then_env.scopes.emplace_back();
    ExecFlags tf;
    exec(a.body, then_env, fn, tf);
    then_env.scopes.pop_back();
    AEnv else_env = env;
    else_env.scopes.emplace_back();
    ExecFlags ef;
    exec(a.else_body, else_env, fn, ef);
    else_env.scopes.pop_back();
    env = join_envs(then_env, else_env);
    if (tf.definitely_returned && ef.definitely_returned)
      flags.definitely_returned = true;
  }

  // A while body may run zero times, so it can never make the enclosing
  // block definitely-returned — the flags stay untouched.
  void exec_while(const Action& a, AEnv& env, FnCtx* fn, ExecFlags& /*flags*/) {
    // Entry facts for the counting-loop trip bound, before the loop widens
    // the counter.
    double entry_lo = kInf;
    double bound_hi = -kInf;
    bool entry_ok = false;
    if (recording_) entry_ok = loop_entry_facts(a, env, &entry_lo, &bound_hi);

    AEnv inv = env;
    int it = 0;
    while (true) {
      AbsVal c = a.expr ? eval(*a.expr, inv) : AbsVal::top();
      if (c.is_const_bool() && !c.const_bool()) break;
      AEnv body_env = inv;
      body_env.scopes.emplace_back();
      ExecFlags bf;
      exec(a.body, body_env, fn, bf);
      body_env.scopes.pop_back();
      AEnv next = join_envs(inv, body_env);
      if (env_same(next, inv)) break;
      ++it;
      if (it >= kWidenAfter) {
        ++out_.widen_applications;
        inv = widen_envs(inv, next);
      } else {
        inv = std::move(next);
      }
      if (it > 256) {  // belt over the threshold ladder: havoc and stop
        for (auto& sc : inv.scopes)
          for (auto& [k, v] : sc.vars) v = AbsVal::top();
        if (a.expr) eval(*a.expr, inv);
        AEnv body2 = inv;
        body2.scopes.emplace_back();
        ExecFlags bf2;
        exec(a.body, body2, fn, bf2);
        body2.scopes.pop_back();
        break;
      }
    }
    env = std::move(inv);

    if (recording_) {
      if (entry_ok) {
        double step = counting_step(a);
        if (step > 0 && std::isfinite(entry_lo) && std::isfinite(bound_hi)) {
          double span = bound_hi - entry_lo;
          if (a.expr->op == BinOp::kLe) span += 1;
          double trips = span <= 0 ? 0 : std::ceil(span / step);
          if (trips >= 0 && trips < 1e15) {
            auto key = &a;
            auto itb = loop_trips_.find(key);
            std::int64_t t = static_cast<std::int64_t>(trips);
            if (itb == loop_trips_.end())
              loop_trips_[key] = t;
            else
              itb->second = std::max(itb->second, t);
            return;
          }
        }
      }
      loop_unbounded_.insert(&a);
    }
  }

  // Checks the canonical counting-loop shape `while (i < E)` / `i <= E`:
  //   - i is a plain variable, only ever advanced by `i = i + c` (or
  //     `i = c + i`) with a positive integer literal c inside the body and
  //     any user function the body calls;
  //   - E is loop-invariant: built from literals, variables the closure
  //     never assigns, min/max/abs, and stats_size/list_size of variables
  //     the closure neither assigns nor mutates;
  //   - i's entry lower bound and E's entry upper bound are finite.
  bool loop_entry_facts(const Action& a, AEnv& env, double* entry_lo,
                        double* bound_hi) {
    if (!a.expr || a.expr->kind != Expr::Kind::kBinary) return false;
    if (a.expr->op != BinOp::kLt && a.expr->op != BinOp::kLe) return false;
    const Expr& lhs = *a.expr->args[0];
    const Expr& rhs = *a.expr->args[1];
    if (lhs.kind != Expr::Kind::kVarRef) return false;
    const std::string& i = lhs.name;

    std::set<std::string> assigned;
    std::set<std::string> mutated_lists;
    if (!closure_writes(a.body, assigned, mutated_lists)) return false;
    if (!bound_invariant(rhs, assigned, mutated_lists)) return false;

    AbsVal iv = AbsVal::top();
    if (AbsVal* slot = env.find(i)) iv = *slot;
    if (!iv.is_int() || !std::isfinite(iv.interval().lo)) return false;
    AbsVal bv = eval_quiet(rhs, env);
    if (!bv.is_num() || !std::isfinite(bv.interval().hi)) return false;
    *entry_lo = iv.interval().lo;
    *bound_hi = bv.interval().hi;
    return true;
  }

  // Step of the counting variable: the minimum positive literal increment,
  // 0 when any write to it is not of the `i = i + c` shape.
  double counting_step(const Action& a) {
    const std::string& i = a.expr->args[0]->name;
    double step = kInf;
    bool ok = true;
    bool saw = false;
    std::vector<const std::vector<ActionPtr>*> bodies{&a.body};
    std::set<std::string> fns;
    collect_called_functions(a.body, fns);
    for (const auto& f : fns)
      if (const FuncDecl* fd = m_.program->function(f))
        bodies.push_back(&fd->body);
    for (const auto* body : bodies) {
      walk_actions(*body, [&](const Action& x) {
        if (x.kind == Action::Kind::kDeclare && x.target == i) ok = false;
        if (x.kind != Action::Kind::kAssign || x.target != i) return;
        saw = true;
        const Expr* e = x.expr.get();
        if (!e || e->kind != Expr::Kind::kBinary || e->op != BinOp::kAdd) {
          ok = false;
          return;
        }
        const Expr* va = e->args[0].get();
        const Expr* cb = e->args[1].get();
        if (!(va && va->kind == Expr::Kind::kVarRef && va->name == i))
          std::swap(va, cb);
        if (!(va && va->kind == Expr::Kind::kVarRef && va->name == i) ||
            !(cb && cb->kind == Expr::Kind::kLiteral && cb->literal.is_int() &&
              cb->literal.as_int() > 0)) {
          ok = false;
          return;
        }
        step = std::min(step, static_cast<double>(cb->literal.as_int()));
      });
    }
    return (ok && saw && std::isfinite(step)) ? step : 0;
  }

  // Names assigned (and lists mutated) by the body plus every user function
  // it can call. False when the closure is not syntactically traceable.
  bool closure_writes(const std::vector<ActionPtr>& body,
                      std::set<std::string>& assigned,
                      std::set<std::string>& mutated) {
    std::vector<const std::vector<ActionPtr>*> bodies{&body};
    std::set<std::string> fns;
    collect_called_functions(body, fns);
    for (const auto& f : fns) {
      const FuncDecl* fd = m_.program->function(f);
      if (!fd) continue;  // builtin-shadowed or unknown: no writes
      bodies.push_back(&fd->body);
    }
    for (const auto* b : bodies) {
      walk_actions(*b, [&](const Action& x) {
        if (x.kind == Action::Kind::kAssign ||
            x.kind == Action::Kind::kDeclare)
          assigned.insert(x.target);
        walk_action_exprs(x, [&](const Expr& e) {
          if (e.kind != Expr::Kind::kCall) return;
          if ((e.name == "list_append" || e.name == "list_set" ||
               e.name == "list_clear" || e.name == "cms_add" ||
               e.name == "cms_clear" || e.name == "mg_add" ||
               e.name == "mg_clear" || e.name == "hll_add" ||
               e.name == "hll_clear") &&
              !e.args.empty() && e.args[0] &&
              e.args[0]->kind == Expr::Kind::kVarRef)
            mutated.insert(e.args[0]->name);
        });
      });
    }
    return true;
  }

  bool bound_invariant(const Expr& e, const std::set<std::string>& assigned,
                       const std::set<std::string>& mutated) {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return true;
      case Expr::Kind::kVarRef:
        return !assigned.count(e.name);
      case Expr::Kind::kBinary:
        if (e.op != BinOp::kAdd && e.op != BinOp::kSub && e.op != BinOp::kMul)
          return false;
        break;
      case Expr::Kind::kCall:
        if (e.name == "min" || e.name == "max" || e.name == "abs") break;
        if ((e.name == "stats_size" || e.name == "list_size") &&
            e.args.size() == 1 && e.args[0] &&
            e.args[0]->kind == Expr::Kind::kVarRef) {
          const std::string& v = e.args[0]->name;
          return !assigned.count(v) && !mutated.count(v);
        }
        return false;
      default:
        return false;
    }
    for (const auto& a : e.args)
      if (a && !bound_invariant(*a, assigned, mutated)) return false;
    return true;
  }

  void collect_called_functions(const std::vector<ActionPtr>& body,
                                std::set<std::string>& out) {
    for (const auto& f : reachable_functions(*m_.program, body))
      out.insert(f);
  }

  void exec_transit(const Action& a, AEnv& env) {
    if (!a.expr) return;
    if (a.expr->kind == Expr::Kind::kVarRef && m_.state(a.expr->name)) {
      if (cur_targets_) cur_targets_->insert(a.expr->name);
      transit_seen_ = true;
      return;
    }
    AbsVal v = eval(*a.expr, env);
    if (v.is_const_string() && m_.state(v.const_string())) {
      if (cur_targets_) cur_targets_->insert(v.const_string());
      transit_seen_ = true;
      return;
    }
    if (v.is_const_string()) return;  // unknown state: runtime error, no edge
    if (cur_dynamic_) *cur_dynamic_ = true;
    transit_seen_ = true;
  }

  // --- expressions ----------------------------------------------------------

  void record(const Expr& e, const AbsVal& v) {
    if (!recording_) return;
    auto it = out_.expr_facts.find(&e);
    if (it == out_.expr_facts.end())
      out_.expr_facts.emplace(&e, v);
    else
      it->second = it->second.join(v);
  }

  // Evaluation without fact recording (loop-entry bound probing).
  AbsVal eval_quiet(const Expr& e, AEnv& env) {
    bool saved = recording_;
    recording_ = false;
    AbsVal v = eval(e, env);
    recording_ = saved;
    return v;
  }

  AbsVal eval(const Expr& e, AEnv& env) {
    AbsVal v = eval_inner(e, env);
    record(e, v);
    return v;
  }

  AbsVal eval_inner(const Expr& e, AEnv& env) {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return AbsVal::of_value(e.literal);
      case Expr::Kind::kVarRef: {
        AbsVal* slot = env.find(e.name);
        return slot ? *slot : AbsVal::top();
      }
      case Expr::Kind::kFieldAccess:
        if (!e.args.empty() && e.args[0]) eval(*e.args[0], env);
        return AbsVal::top();
      case Expr::Kind::kBinary:
        return eval_binary(e, env);
      case Expr::Kind::kNot: {
        AbsVal a = e.args.empty() || !e.args[0] ? AbsVal::top()
                                                : eval(*e.args[0], env);
        if (a.is_const_bool()) return AbsVal::boolean(!a.const_bool());
        return AbsVal::top();
      }
      case Expr::Kind::kCall:
        return eval_call(e, env);
      case Expr::Kind::kFilterAtom:
      case Expr::Kind::kStructInit:
        for (const auto& a : e.args)
          if (a) eval(*a, env);
        return AbsVal::top();
    }
    return AbsVal::top();
  }

  AbsVal eval_binary(const Expr& e, AEnv& env) {
    const Expr* le = e.args.size() > 0 ? e.args[0].get() : nullptr;
    const Expr* re = e.args.size() > 1 ? e.args[1].get() : nullptr;
    if (!le || !re) return AbsVal::top();

    if (e.op == BinOp::kAnd || e.op == BinOp::kOr) {
      AbsVal l = eval(*le, env);
      bool stop_on = e.op == BinOp::kOr;  // short-circuit value
      if (l.is_const_bool()) {
        if (l.const_bool() == stop_on) return AbsVal::boolean(stop_on);
        AbsVal r = eval(*re, env);
        if (r.is_const_bool()) return r;
        return AbsVal::top();
      }
      eval(*re, env);
      return AbsVal::top();
    }

    AbsVal l = eval(*le, env);
    AbsVal r = eval(*re, env);

    switch (e.op) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
        return eval_arith(e, l, r);
      case BinOp::kDiv:
        return eval_div(e, l, r);
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe:
      case BinOp::kEq:
      case BinOp::kNe:
        return eval_compare(e.op, l, r);
      default:
        return AbsVal::top();
    }
  }

  AbsVal eval_arith(const Expr& e, const AbsVal& l, const AbsVal& r) {
    // String concatenation path of `+`.
    if (e.op == BinOp::kAdd && (l.is_const_string() || r.is_const_string())) {
      Value lv, rv;
      if (l.singleton(&lv) && r.singleton(&rv)) {
        std::string ls = lv.is_string() ? lv.as_string() : lv.to_string();
        std::string rs = rv.is_string() ? rv.as_string() : rv.to_string();
        return AbsVal::string_const(ls + rs);
      }
      return AbsVal::top();
    }
    if (!l.is_num() || !r.is_num()) {
      if (recording_) overflow_refuted_.insert(&e);
      return AbsVal::top();
    }
    Interval raw = e.op == BinOp::kAdd   ? iv_add(l.interval(), r.interval())
                   : e.op == BinOp::kSub ? iv_sub(l.interval(), r.interval())
                                         : iv_mul(l.interval(), r.interval());
    bool both_int = l.is_int() && r.is_int();
    if (both_int) raw = iv_outward(raw);
    if (!both_int) {
      if (recording_) overflow_refuted_.insert(&e);
      return AbsVal::num_float(raw.lo, raw.hi);
    }
    // Checked int arithmetic: a provable overflow always throws; a partial
    // one clamps the surviving values to the representable range.
    bool provable = raw.lo > kOverflowMargin || raw.hi < -kOverflowMargin;
    if (recording_) {
      if (provable) {
        overflow_seen_.insert(&e);
        auto it = overflow_ranges_.find(&e);
        if (it == overflow_ranges_.end())
          overflow_ranges_.emplace(&e, raw);
        else {
          it->second.lo = std::min(it->second.lo, raw.lo);
          it->second.hi = std::max(it->second.hi, raw.hi);
        }
      } else {
        overflow_refuted_.insert(&e);
      }
    }
    if (provable) return AbsVal::bottom();
    return AbsVal::num_int(std::max(raw.lo, kI64Lo), std::min(raw.hi, kI64Hi));
  }

  AbsVal eval_div(const Expr& e, const AbsVal& l, const AbsVal& r) {
    bool zero = r.is_num() && r.interval().lo == 0 && r.interval().hi == 0;
    if (recording_) {
      if (zero)
        divzero_seen_.insert(&e);
      else
        divzero_refuted_.insert(&e);
    }
    if (zero) return AbsVal::bottom();
    if (!l.is_num() || !r.is_num()) return AbsVal::top();
    Value lv, rv;
    if (l.singleton(&lv) && r.singleton(&rv) && lv.is_int() && rv.is_int() &&
        rv.as_int() != 0) {
      std::int64_t a = lv.as_int();
      std::int64_t b = rv.as_int();
      if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
        return AbsVal::bottom();  // checked interpreter throws
      if (a % b == 0) return AbsVal::num_int(static_cast<double>(a / b),
                                             static_cast<double>(a / b));
      return AbsVal::num_float(static_cast<double>(a) / static_cast<double>(b),
                               static_cast<double>(a) /
                                   static_cast<double>(b));
    }
    if (r.interval().lo <= 0 && r.interval().hi >= 0)
      return AbsVal::num_float(-kInf, kInf);
    Interval q = iv_div(l.interval(), r.interval());
    // Exact int64 divisions (a % b == 0) land on exact integers; the
    // double endpoint quotient rounds to nearest, so widen outward.
    if (l.is_int() && r.is_int()) q = iv_outward(q);
    return AbsVal::num_float(q.lo, q.hi);
  }

  AbsVal eval_compare(BinOp op, const AbsVal& l, const AbsVal& r) {
    Value lv, rv;
    bool ls = l.singleton(&lv);
    bool rs = r.singleton(&rv);
    if (op == BinOp::kEq || op == BinOp::kNe) {
      if (ls && rs) {
        bool eq = lv.equals(rv);
        return AbsVal::boolean(op == BinOp::kEq ? eq : !eq);
      }
      if (l.is_num() && r.is_num()) {
        bool disjoint = l.interval().hi < r.interval().lo ||
                        r.interval().hi < l.interval().lo;
        if (disjoint) return AbsVal::boolean(op == BinOp::kNe);
      }
      if (l.is_const_string() && r.is_const_string())
        return AbsVal::boolean((l.const_string() == r.const_string()) ==
                               (op == BinOp::kEq));
      return AbsVal::top();
    }
    if (l.is_num() && r.is_num()) {
      const Interval& a = l.interval();
      const Interval& b = r.interval();
      switch (op) {
        case BinOp::kLt:
          if (a.hi < b.lo) return AbsVal::boolean(true);
          if (a.lo >= b.hi) return AbsVal::boolean(false);
          break;
        case BinOp::kLe:
          if (a.hi <= b.lo) return AbsVal::boolean(true);
          if (a.lo > b.hi) return AbsVal::boolean(false);
          break;
        case BinOp::kGt:
          if (a.lo > b.hi) return AbsVal::boolean(true);
          if (a.hi <= b.lo) return AbsVal::boolean(false);
          break;
        case BinOp::kGe:
          if (a.lo >= b.hi) return AbsVal::boolean(true);
          if (a.hi < b.lo) return AbsVal::boolean(false);
          break;
        default:
          break;
      }
      return AbsVal::top();
    }
    if (l.is_const_string() && r.is_const_string()) {
      int c = l.const_string().compare(r.const_string());
      switch (op) {
        case BinOp::kLt:
          return AbsVal::boolean(c < 0);
        case BinOp::kLe:
          return AbsVal::boolean(c <= 0);
        case BinOp::kGt:
          return AbsVal::boolean(c > 0);
        case BinOp::kGe:
          return AbsVal::boolean(c >= 0);
        default:
          break;
      }
    }
    return AbsVal::top();
  }

  AbsVal eval_call(const Expr& e, AEnv& env) {
    const std::string& n = e.name;
    std::vector<AbsVal> args;
    args.reserve(e.args.size());
    auto eval_args = [&] {
      for (const auto& a : e.args)
        args.push_back(a ? eval(*a, env) : AbsVal::top());
    };

    if (n == "min" || n == "max") {
      eval_args();
      if (args.empty()) return AbsVal::top();
      bool all_num = true;
      bool all_int = true;
      Interval acc{n == "min" ? kInf : -kInf, n == "min" ? kInf : -kInf};
      bool first = true;
      for (const auto& a : args) {
        if (!a.is_num()) {
          all_num = false;
          break;
        }
        all_int = all_int && a.is_int();
        if (first) {
          acc = a.interval();
          first = false;
        } else if (n == "min") {
          acc = {std::min(acc.lo, a.interval().lo),
                 std::min(acc.hi, a.interval().hi)};
        } else {
          acc = {std::max(acc.lo, a.interval().lo),
                 std::max(acc.hi, a.interval().hi)};
        }
      }
      if (!all_num) return AbsVal::top();
      return all_int ? AbsVal::num_int(acc.lo, acc.hi)
                     : AbsVal::num_float(acc.lo, acc.hi);
    }
    if (n == "abs") {
      eval_args();
      if (args.size() != 1 || !args[0].is_num()) return AbsVal::top();
      const Interval& a = args[0].interval();
      Interval r = a.lo >= 0   ? a
                   : a.hi <= 0 ? Interval{-a.hi, -a.lo}
                               : Interval{0, std::max(-a.lo, a.hi)};
      return args[0].is_int() ? AbsVal::num_int(r.lo, std::min(r.hi, kI64Hi))
                              : AbsVal::num_float(r.lo, r.hi);
    }
    if (n == "stats_size") {
      eval_args();
      return AbsVal::num_int(0, static_cast<double>(opts_.max_ifaces));
    }
    if (n == "list_size") {
      eval_args();
      return AbsVal::num_int(0, kInf);
    }
    if (n == "list_index_of") {
      eval_args();
      return AbsVal::num_int(-1, kInf);
    }
    if (n == "stats_iface" || n == "stats_bytes" || n == "stats_packets" ||
        n == "now_ms" || n == "switch_id" || n == "to_long" ||
        n == "cms_estimate" || n == "mg_estimate" || n == "hll_estimate") {
      eval_args();
      if (n == "to_long" && args.size() == 1 && args[0].is_num()) {
        const Interval& a = args[0].interval();
        double lo = std::isfinite(a.lo) ? std::trunc(a.lo) : a.lo;
        double hi = std::isfinite(a.hi) ? std::trunc(a.hi) : a.hi;
        return AbsVal::num_int(std::max(lo, kI64Lo), std::min(hi, kI64Hi));
      }
      return AbsVal::num_int(-kInf, kInf);
    }
    if (n == "to_float") {
      eval_args();
      if (args.size() == 1 && args[0].is_num())
        return AbsVal::num_float(args[0].interval().lo,
                                 args[0].interval().hi);
      return AbsVal::num_float(-kInf, kInf);
    }
    // Remaining builtins (host calls, containers, sketches, stringifiers)
    // and unknown names: Top. Builtins shadow user functions, so check the
    // user-function table only for names the interpreter does not claim.
    if (is_builtin(n)) {
      eval_args();
      return AbsVal::top();
    }

    const FuncDecl* f = m_.program->function(n);
    if (!f) {
      eval_args();
      return AbsVal::top();  // unknown call: runtime error
    }
    eval_args();
    if (inline_depth_ >= kMaxInlineDepth || inlining_.count(f)) {
      env.havoc_machine();
      return AbsVal::top();
    }
    ++inline_depth_;
    inlining_.insert(f);
    Scope fscope;
    fscope.fn_barrier = true;
    for (std::size_t i = 0; i < f->params.size(); ++i)
      fscope.vars[f->params[i].name] =
          i < args.size() ? args[i] : AbsVal::top();
    env.scopes.push_back(std::move(fscope));
    FnCtx ctx;
    ExecFlags fl;
    exec(f->body, env, &ctx, fl);
    env.scopes.pop_back();
    inlining_.erase(f);
    --inline_depth_;
    if (!fl.definitely_returned) ctx.ret = ctx.ret.join(AbsVal::top());
    return ctx.ret.is_bottom() ? AbsVal::top() : ctx.ret;
  }

  const CompiledMachine& m_;
  const AbsintOptions& opts_;
  Analysis& out_;

  std::map<std::string, std::map<std::string, AbsVal>> in_;
  std::map<std::string, int> join_count_;
  bool recording_ = false;
  std::set<std::string>* cur_targets_ = nullptr;
  bool* cur_dynamic_ = nullptr;
  std::map<std::string, AbsVal>* acc_self_ = nullptr;
  std::map<std::string, AbsVal>* acc_transit_ = nullptr;
  bool transit_seen_ = false;
  int inline_depth_ = 0;
  std::set<const FuncDecl*> inlining_;

  std::set<const Expr*> overflow_seen_;
  std::set<const Expr*> overflow_refuted_;
  std::set<const Expr*> divzero_seen_;
  std::set<const Expr*> divzero_refuted_;
  std::unordered_map<const Action*, std::int64_t> loop_trips_;
  std::set<const Action*> loop_unbounded_;
  std::unordered_map<const Expr*, Interval> overflow_ranges_;
};

// --- Observability (AI005 support) ------------------------------------------

// Name-granular, flow-insensitive: a register is observable when its value
// can reach a condition, transit, send, return, host/builtin call argument,
// filter atom, struct initializer, utility body, place directive, or a
// write to an external/trigger register; assignment edges propagate
// observability from targets back to sources. Conservative toward
// "observable" — AI005 only fires on registers provably outside the set.
void scan_observability(const CompiledMachine& m, Analysis& out) {
  std::map<std::string, std::set<std::string>> rev_edges;  // target -> sources
  std::set<std::string> roots;

  std::function<void(const Expr&, bool)> collect =
      [&](const Expr& e, bool under_call) {
        bool next_under = under_call;
        if (e.kind == Expr::Kind::kCall || e.kind == Expr::Kind::kFilterAtom ||
            e.kind == Expr::Kind::kStructInit)
          next_under = true;
        if (e.kind == Expr::Kind::kVarRef && under_call) roots.insert(e.name);
        for (const auto& a : e.args)
          if (a) collect(*a, next_under);
      };
  auto all_roots = [&](const Expr& e) {
    walk_expr(e, [&](const Expr& x) {
      if (x.kind == Expr::Kind::kVarRef) roots.insert(x.name);
    });
  };
  auto scan_assign = [&](const std::string& target, const Expr* rhs) {
    if (!rhs) return;
    const VarDecl* v = m.var(target);
    if (v && (v->external || v->trigger)) {
      all_roots(*rhs);
      return;
    }
    walk_expr(*rhs, [&](const Expr& x) {
      if (x.kind == Expr::Kind::kVarRef) rev_edges[target].insert(x.name);
    });
    collect(*rhs, false);
  };
  auto scan_body = [&](const std::vector<ActionPtr>& body) {
    walk_actions(body, [&](const Action& a) {
      switch (a.kind) {
        case Action::Kind::kAssign:
          out.assigned_vars.insert(a.target);
          scan_assign(a.target, a.expr.get());
          break;
        case Action::Kind::kDeclare:
          scan_assign(a.target, a.expr.get());
          break;
        case Action::Kind::kIf:
        case Action::Kind::kWhile:
        case Action::Kind::kTransit:
        case Action::Kind::kSend:
        case Action::Kind::kReturn:
        case Action::Kind::kExprStmt:
          if (a.expr) all_roots(*a.expr);
          if (a.to_dst) all_roots(*a.to_dst);
          break;
      }
      walk_action_exprs(a, [&](const Expr& e) {
        if (e.kind == Expr::Kind::kVarRef) out.read_vars.insert(e.name);
      });
    });
  };

  std::unordered_set<const EventDecl*> seen;
  std::unordered_set<std::string> fns;
  for (const auto& s : m.states) {
    for (const auto* ev : s.events) {
      if (!seen.insert(ev).second) continue;
      scan_body(ev->actions);
      for (const auto& f : reachable_functions(*m.program, ev->actions))
        fns.insert(f);
    }
    if (s.util)
      walk_actions(s.util->body, [&](const Action& a) {
        if (a.expr) all_roots(*a.expr);
      });
  }
  for (const auto& f : fns)
    if (const FuncDecl* fd = m.program->function(f)) scan_body(fd->body);
  for (const auto* v : m.vars)
    if (v->init) scan_assign(v->name, v->init.get());
  for (const auto* p : m.places) {
    for (const auto& e : p->switch_ids)
      if (e) all_roots(*e);
    if (p->path_filter) all_roots(*p->path_filter);
    if (p->range_value) all_roots(*p->range_value);
  }

  // Propagate observability backwards through assignment edges.
  std::deque<std::string> wl(roots.begin(), roots.end());
  out.observable_vars = roots;
  while (!wl.empty()) {
    std::string w = wl.front();
    wl.pop_front();
    auto it = rev_edges.find(w);
    if (it == rev_edges.end()) continue;
    for (const auto& src : it->second)
      if (out.observable_vars.insert(src).second) wl.push_back(src);
  }
}

}  // namespace

// --- Entry point ------------------------------------------------------------

Analysis analyze_machine(const CompiledMachine& m, const AbsintOptions& opts) {
  Analysis out;
  Engine eng(m, opts, out);
  eng.run();
  if (out.hit_cap) {
    // Degrade soundly: no facts survive an abandoned fixpoint.
    out.state_entry.clear();
    out.reachable_states.clear();
    for (const auto& s : m.states) out.reachable_states.insert(s.name);
    out.expr_facts.clear();
    out.loop_bounds.clear();
    out.overflow_nodes.clear();
    out.div_by_zero_nodes.clear();
    out.overflow_ranges.clear();
  }
  scan_observability(m, out);
  return out;
}

}  // namespace farm::almanac::verify::absint
