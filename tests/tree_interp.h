// The tree-walking seed VM that the slot-resolved VM (src/almanac/vm.h)
// replaced, kept verbatim as the differential oracle of
// vm_oracle_test.cpp: an Interpreter that resolves every name through a
// chain of name-keyed Env scopes and dispatches builtins by name, and the
// SeedCore event loop that ran it. Only the shared types (values, the
// host interface, EvalError, SeedCore::Site) come from src/.
//
// Known differences from src/, outside every corpus the oracle test runs:
// a state local is never bound (reading one raises `undefined variable`),
// a builtin or field applied to a value of the wrong type aborts the
// process, and an EvalError raised inside a program function leaves the
// call depth raised.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "almanac/seed_core.h"

namespace farm::almanac::tree {

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

class SeedCore : public SeedHost {
 public:
  using Site = almanac::SeedCore::Site;
  static const char* site_name(Site site) {
    return almanac::SeedCore::site_name(site);
  }
  static constexpr int kMaxTransitChain = 64;

  // `machine` must outlive the core. The machine variables stay unbound
  // until bind(), which the host calls once it can serve host calls.
  explicit SeedCore(const CompiledMachine& machine);
  ~SeedCore() override;

  const CompiledMachine& machine() const { return machine_; }
  const std::string& current_state() const { return current_state_; }
  const Env& env() const { return env_; }
  // The machine variables by name.
  std::unordered_map<std::string, Value> machine_vars() const {
    return env_.own();
  }
  bool started() const { return started_; }

  // Binds the machine variables: `externals` override initializers (only
  // external variables may be bound, §III-A a), trigger variables without
  // an initializer start disarmed, and the rest take their declared type's
  // default. An initializer's EvalError propagates.
  void bind(const std::unordered_map<std::string, Value>& externals);
  // Runs the initial state's enter handlers and any transit they request.
  void start();
  // Resumes in `state` with the given machine variables (unknown names are
  // dropped) without re-running enter handlers: a migrated seed continues
  // exactly where it left off (§V-B).
  void resume(const std::string& state,
              const std::unordered_map<std::string, Value>& machine_vars);
  // The seed stops reacting; events delivered after stop() run no handler.
  void stop() { started_ = false; }

  // --- Events (ignored before start() and after stop()) ---------------------
  void on_poll(const std::string& var, const StatsValue& stats);
  void on_probe(const std::string& var, const net::PacketHeader& packet);
  void on_time(const std::string& var);
  // The first recv handler whose sender and payload type match consumes
  // the message.
  void on_message(const Value& payload, bool from_harvester,
                  const std::string& from_machine);
  // The host has already changed the allocation resources() returns.
  void on_realloc();

  // The current state's compiled util analysis, evaluated at an
  // allocation; 0 when the util does not analyze.
  double utility(const ResourcesValue& r) const;

  // Defers the transition to the end of the running handler.
  void request_transit(const std::string& state) override;

 protected:
  const CompiledState* state() const {
    return machine_.state(current_state_);
  }

  // --- Hooks ----------------------------------------------------------------
  // An event handler is about to run (enter/exit handlers of a transit
  // excluded).
  virtual void handler_ran() = 0;
  // A handler raised; the event or transition completes regardless.
  virtual void handler_failed(Site site, const EvalError& error) = 0;
  // A transition entered current_state(); its enter handlers have run.
  virtual void state_entered() = 0;
  // The transit chain exceeded kMaxTransitChain; the pending transit is
  // dropped.
  virtual void chain_cut() = 0;

 private:
  // Runs an event's actions in a fresh scope (with an optional binding),
  // then applies any deferred transition.
  void run_handler(const std::vector<ActionPtr>& actions,
                   const std::string& bind_name, const Value& bind_value);
  void fire_var(const std::string& var, const Value& bind_value);
  void fire_simple(EventDecl::TriggerKind kind);
  void run_transit_handlers(EventDecl::TriggerKind kind, Site site);
  void apply_pending_transit();

  const CompiledMachine& machine_;
  Env env_;  // machine-level environment
  std::string current_state_;
  std::optional<std::string> pending_transit_;
  Interpreter interp_;
  bool started_ = false;
  int transit_depth_ = 0;
};

}  // namespace farm::almanac::tree
