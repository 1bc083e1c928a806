// The seed VM: runs the slot-resolved code of a compiled machine (code.h).
//
// Handlers run over flat frames: machine variables and state locals live
// in the machine's register file (Registers), a handler's binding and
// block locals and a function's parameters in a per-call frame on the
// VM's frame stack. Nothing the VM runs looks a name up; names are read
// only to build error text, from the slot → name table or the AST.
//
// The VM is host-agnostic: everything that touches the switch or the
// network goes through the SeedHost interface (List. 1's runtime library:
// res(), TCAM API, exec(), plus message sending and state transitions).
// The runtime module implements SeedHost on top of the soil; tests
// implement it with fakes; static analyses evaluate expressions with a
// null host (host-dependent calls then fail, which those analyses treat
// as "not statically evaluable").
#pragma once

#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "almanac/code.h"
#include "almanac/compile.h"
#include "almanac/value.h"

namespace farm::almanac {

class EvalError : public std::runtime_error {
 public:
  EvalError(std::string message, SourceLoc loc)
      : std::runtime_error(loc.to_string() + ": " + message), loc_(loc) {}
  SourceLoc loc() const { return loc_; }

 private:
  SourceLoc loc_;
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

// Default value for a declared (non-trigger) variable type.
Value default_value(TypeName t);
// Does `v` match a recv pattern of declared type `t`?
bool matches_type(const Value& v, TypeName t);

// The register file of one machine instance: a slot per machine variable,
// then a slot per state local (MachineCode::names). A slot is unbound
// until written; reading or assigning an unbound slot raises like an
// undefined name.
class Registers {
 public:
  explicit Registers(const CompiledMachine& machine);

  bool bound(std::size_t slot) const { return bound_[slot] != 0; }
  const Value& operator[](std::size_t slot) const { return values_[slot]; }
  Value& operator[](std::size_t slot) { return values_[slot]; }
  void bind(std::size_t slot, Value v) {
    values_[slot] = std::move(v);
    bound_[slot] = 1;
  }
  // A bound machine variable by name; nullptr when unknown or unbound.
  const Value* var(std::string_view name) const;

 private:
  const MachineCode* code_;
  std::vector<Value> values_;
  std::vector<unsigned char> bound_;
};

class Vm {
 public:
  // `machine` (and its Program) must outlive the VM. `host` may be null:
  // host-dependent operations then raise EvalError.
  Vm(const CompiledMachine& machine, SeedHost* host);

  // Runs a handler of the machine over `regs`, a copy of `binding` in its
  // binding slot. An EvalError propagates; the frame is released either
  // way.
  void run(const HandlerCode& handler, Registers& regs,
           const Value& binding = Value());
  // Evaluates lowered code of the machine (an initializer) over `regs`.
  Value eval(const ExprCode& e, Registers& regs);
  // Lowers an expression of the machine's program in the scope of its
  // machine variables and evaluates it (the static analyses' entry).
  Value eval(const Expr& e, Registers& regs);

 private:
  class Frame;
  class Args;

  // Storage for an operand that is not read in place. The value is
  // constructed in it directly from the call that computes it.
  class Temp {
   public:
    Temp() = default;
    Temp(const Temp&) = delete;
    Temp& operator=(const Temp&) = delete;
    ~Temp() { reset(); }
    template <class Make>
    Value& emplace(Make&& make) {
      reset();
      Value* v = ::new (static_cast<void*>(buf_)) Value(make());
      engaged_ = true;
      return *v;
    }
    explicit operator bool() const { return engaged_; }
    Value& operator*() { return *std::launder(reinterpret_cast<Value*>(buf_)); }

   private:
    void reset() {
      if (!engaged_) return;
      (**this).~Value();
      engaged_ = false;
    }
    alignas(Value) unsigned char buf_[sizeof(Value)];
    bool engaged_ = false;
  };

  SeedHost* host(SourceLoc loc) const {
    if (!host_) throw EvalError("operation requires a runtime host", loc);
    return host_;
  }
  // Returns the value of `e`: the slot itself when `e` reads one in place,
  // otherwise `tmp`, which receives it.
  const Value& ref(const ExprCode& e, std::size_t fp, Temp& tmp);
  Value eval(const ExprCode& e, std::size_t fp);
  const Value& reg(const ExprCode& e) const;
  Value binary(const ExprCode& e, std::size_t fp);
  // An if/while condition; `what` names it in the error for a non-bool.
  bool test(const StmtCode& s, std::size_t fp, const char* what);
  Value field(const ExprCode& e, std::size_t fp);
  Value filter_atom(const ExprCode& e, std::size_t fp);
  Value struct_init(const ExprCode& e, std::size_t fp);
  Value call(const ExprCode& e, std::size_t fp);
  [[noreturn]] void bad_call(const ExprCode& e, std::size_t fp);
  static constexpr std::size_t kInlineArgs = 4;
  Value builtin(const ExprCode& e, std::size_t fp);
  Value apply(const ExprCode& e, const Args& args);
  // Runs a statement list; true when a return ran (its value in `ret`).
  bool exec(const std::vector<StmtCode>& body, std::size_t fp, Value& ret);

  const CompiledMachine& machine_;
  const MachineCode& code_;
  SeedHost* host_;
  Registers* regs_ = nullptr;  // of the running call
  // Frames of the running calls; a frame is addressed by its base index,
  // so the stack may grow while a callee runs.
  std::vector<Value> stack_;
  std::size_t sp_ = 0;
  int call_depth_ = 0;
  static constexpr int kMaxCallDepth = 128;
  static constexpr std::int64_t kMaxLoopIterations = 10'000'000;
};

}  // namespace farm::almanac
