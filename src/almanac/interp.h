// Tree-walking interpreter for Almanac — the seed VM.
//
// The interpreter is host-agnostic: everything that touches the switch or
// the network goes through the SeedHost interface (List. 1's runtime
// library: res(), TCAM API, exec(), plus message sending and state
// transitions). The runtime module implements SeedHost on top of the soil;
// tests implement it with fakes; static analyses evaluate expressions with
// a null host (host-dependent calls then fail, which those analyses treat
// as "not statically evaluable").
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "almanac/compile.h"
#include "almanac/value.h"

namespace farm::almanac {

// Every name Interpreter::builtin dispatches, sorted. A call runs the
// builtin before it looks for a program function, so a program function
// with one of these names is never called; static analyses that follow
// calls into program functions skip the names is_builtin accepts.
inline constexpr std::string_view kBuiltinNames[] = {
    "abs", "action_count", "action_drop", "action_mirror", "action_rate_limit",
    "addTCAMRule", "cms_add", "cms_clear", "cms_estimate", "cms_new", "exec",
    "getTCAMRule", "hll_add", "hll_clear", "hll_estimate", "hll_new",
    "iface_filter", "is_list_empty", "is_nil", "list_append", "list_clear",
    "list_contains", "list_get", "list_index_of", "list_new", "list_set",
    "list_size", "log", "max", "mg_add", "mg_clear", "mg_estimate",
    "mg_hitters", "mg_new", "min", "now_ms", "removeTCAMRule", "res",
    "stats_bytes", "stats_iface", "stats_packets", "stats_size",
    "stats_subject", "switch_id", "to_float", "to_long", "to_str"};
bool is_builtin(std::string_view name);

class EvalError : public std::runtime_error {
 public:
  EvalError(std::string message, SourceLoc loc)
      : std::runtime_error(loc.to_string() + ": " + message), loc_(loc) {}
  SourceLoc loc() const { return loc_; }

 private:
  SourceLoc loc_;
};

// Lexically chained variable environment. The machine environment is the
// root; state locals and handler bindings chain onto it.
class Env {
 public:
  explicit Env(Env* parent = nullptr) : parent_(parent) {}

  void define(const std::string& name, Value v) { vars_[name] = std::move(v); }
  // Innermost binding, or nullptr.
  Value* find(const std::string& name);
  const Value* find(const std::string& name) const;
  // Assigns the innermost existing binding; false if none exists.
  bool assign(const std::string& name, Value v);
  Env* parent() { return parent_; }
  // Own (non-inherited) bindings; used for state snapshot/migration.
  const std::unordered_map<std::string, Value>& own() const { return vars_; }

 private:
  Env* parent_;
  std::unordered_map<std::string, Value> vars_;
};

// Destination of a send action.
struct SendTarget {
  bool to_harvester = false;
  std::string machine;               // when !to_harvester
  std::optional<std::int64_t> dst;   // switch id; nullopt = broadcast
};

class SeedHost {
 public:
  virtual ~SeedHost() = default;
  virtual ResourcesValue resources() = 0;
  // TCAM API (List. 1). Rules installed by seeds go to the monitoring
  // region unless the rule value says otherwise.
  virtual void add_tcam_rule(const asic::TcamRule& rule) = 0;
  virtual void remove_tcam_rule(const net::Filter& pattern) = 0;
  virtual std::optional<asic::TcamRule> get_tcam_rule(
      const net::Filter& pattern) = 0;
  virtual void send(const Value& payload, const SendTarget& target) = 0;
  // Runs external code (the ML use case); cost accounting is host-side.
  virtual void exec(const std::string& command) = 0;
  // Deferred state transition: takes effect after the current handler.
  virtual void request_transit(const std::string& state) = 0;
  // A trigger variable was (re)assigned; the host re-arms its timer.
  virtual void trigger_updated(const std::string& var) = 0;
  virtual std::int64_t switch_id() = 0;
  virtual std::int64_t now_ms() = 0;
  virtual void log(const std::string& message) = 0;
};

// Outcome of running an action list.
struct ExecResult {
  bool returned = false;
  Value return_value;
};

class Interpreter {
 public:
  // `machine` (and its Program) must outlive the interpreter. `host` may be
  // null: host-dependent operations then raise EvalError, which static
  // analyses interpret as "not statically evaluable".
  Interpreter(const CompiledMachine& machine, SeedHost* host)
      : machine_(machine), host_(host) {}

  Value eval(const Expr& e, Env& env);
  ExecResult exec(const std::vector<ActionPtr>& actions, Env& env);
  // Calls a user-defined function of the program.
  Value call_function(const std::string& name, std::vector<Value> args,
                      Env& root, SourceLoc loc);

  // Default value for a declared (non-trigger) variable type.
  static Value default_value(TypeName t);
  // Does `v` match a recv pattern of declared type `t`?
  static bool matches_type(const Value& v, TypeName t);

 private:
  SeedHost* host(SourceLoc loc) const {
    if (!host_) throw EvalError("operation requires a runtime host", loc);
    return host_;
  }
  Value eval_binary(const Expr& e, Env& env);
  Value eval_filter_atom(const Expr& e, Env& env);
  Value eval_struct_init(const Expr& e, Env& env);
  Value eval_field(const Expr& e, Env& env);
  Value eval_call(const Expr& e, Env& env);
  Value builtin(const std::string& name, std::vector<Value>& args,
                SourceLoc loc, bool& handled);

  const CompiledMachine& machine_;
  SeedHost* host_;
  int call_depth_ = 0;
  static constexpr int kMaxCallDepth = 128;
  static constexpr std::int64_t kMaxLoopIterations = 10'000'000;
};

}  // namespace farm::almanac
