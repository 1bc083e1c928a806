// Slot-resolved code of a compiled machine: what the seed VM (vm.h) runs.
//
// compile_machine lowers every handler, state-local and machine-variable
// initializer, and program function of a machine into this form once
// (lower.cpp). A *slot* is an index into a flat array of Values:
//   - register slots index the machine's register file (vm.h Registers):
//     the machine variables in CompiledMachine::vars order, then the
//     locals of every state;
//   - frame slots index the per-call frame of a handler or function: the
//     handler's binding, function parameters and block locals.
// Every identifier is resolved to a slot, or to kUnbound when no binding
// of that name is visible at that point (the VM raises `undefined
// variable` when one is evaluated). Every call is a builtin enum or a
// function index, field, filter-atom and struct names are enums, and an
// assignment knows whether its target names a trigger variable. Names
// survive only in the slot → name table (MachineCode::names) and in the
// AST nodes the code points back to for source locations and error text;
// the code borrows those nodes from the Program, which must outlive it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "almanac/ast.h"

namespace farm::almanac {

struct CompiledMachine;

// Every builtin name, sorted. A call runs the builtin before it looks for
// a program function, so a program function with one of these names is
// never called; static analyses that follow calls into program functions
// skip the names is_builtin accepts.
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

// The builtins, in kBuiltinNames order: a call to kBuiltinNames[i] lowers
// to Builtin(i).
enum class Builtin : std::uint8_t {
  kAbs, kActionCount, kActionDrop, kActionMirror, kActionRateLimit,
  kAddTcamRule, kCmsAdd, kCmsClear, kCmsEstimate, kCmsNew, kExec,
  kGetTcamRule, kHllAdd, kHllClear, kHllEstimate, kHllNew,
  kIfaceFilter, kIsListEmpty, kIsNil, kListAppend, kListClear,
  kListContains, kListGet, kListIndexOf, kListNew, kListSet,
  kListSize, kLog, kMax, kMgAdd, kMgClear, kMgEstimate,
  kMgHitters, kMgNew, kMin, kNowMs, kRemoveTcamRule, kRes,
  kStatsBytes, kStatsIface, kStatsPackets, kStatsSize,
  kStatsSubject, kSwitchId, kToFloat, kToLong, kToStr,
};
static_assert(static_cast<std::size_t>(Builtin::kToStr) + 1 ==
              std::size(kBuiltinNames));

// `.name` of a resources, packet, trigger or rule value.
enum class Field : std::uint8_t {
  kVCpu, kRam, kTcam, kPcie,                             // resources
  kSrcIp, kDstIp, kSrcPort, kDstPort, kSize, kProto,     // packet
  kSyn, kAck, kFin, kRst,                                //   TCP flags
  kIval, kWhat,                                          // trigger
  kPattern, kAct, kId,                                   // rule
  kUnknown,
};

enum class AtomKind : std::uint8_t {
  kSrcIp, kDstIp, kProto, kPort, kSrcPort, kDstPort, kIface, kUnknown,
};

enum class StructKind : std::uint8_t { kPoll, kProbe, kRule, kUnknown };

struct ExprCode {
  enum class Kind : std::uint8_t {
    kConst,      // src->literal
    kLocal,      // frame slot `index`
    kRegister,   // register slot `index`
    kUnbound,    // src->name is bound nowhere in scope: raises
    kField,      // args[0].field
    kBinary,     // args[0] op args[1]
    kNot,        // not args[0]
    kBuiltin,    // builtin(args...)
    kCall,       // functions[index](args...); arity already checked
    kBadCall,    // unknown function or wrong arity: evaluates args, raises
    kFilterAtom, // atom [args[0]]
    kStruct,     // Poll/Probe: args = {ival, what}; Rule: {pattern, act,
                 // priority}; a field the source omits is kAbsent
    kAbsent,
  };
  // kBadCall: the program has no function of that name.
  static constexpr std::uint32_t kNoFunction = ~std::uint32_t{0};

  Kind kind = Kind::kAbsent;
  // kLocal / kRegister: the consumer reads the slot in place instead of a
  // copy. Set where no later operand of the same consumer calls a program
  // function, which could reassign the register (or grow the frame stack)
  // before the value is used.
  bool in_place = false;
  // The subtree calls a program function.
  bool has_call = false;
  BinOp op = BinOp::kAnd;
  Builtin builtin = Builtin::kAbs;
  Field field = Field::kUnknown;
  AtomKind atom = AtomKind::kUnknown;
  StructKind st = StructKind::kUnknown;
  std::uint32_t index = 0;
  const Expr* src = nullptr;  // location, literal and names for errors
  std::vector<ExprCode> args;
};

// Destination of a send action.
struct SendTarget {
  bool to_harvester = false;
  std::string machine;               // when !to_harvester
  std::optional<std::int64_t> dst;   // switch id; nullopt = broadcast
};

struct StmtCode {
  enum class Kind : std::uint8_t {
    kDeclare,           // frame[slot] = expr, or the type's default
    kAssign,            // slot (register or frame) = expr
    kAssignUndeclared,  // evaluates expr, raises: no such variable
    kIf,
    kWhile,
    kTransit,           // to state `slot`, or to the state named by expr
    kSend,
    kReturn,
    kExpr,
  };
  static constexpr std::uint32_t kDynamicTarget = ~std::uint32_t{0};

  Kind kind = Kind::kExpr;
  bool to_register = false;  // kAssign: `slot` is a register slot
  bool trigger = false;      // kAssign: the target names a trigger variable
  std::uint32_t slot = 0;
  ExprCode expr;  // value / condition / payload / return value
  ExprCode dst;   // kSend: @dst, kAbsent = broadcast
  SendTarget send;  // kSend: the static part of the destination
  std::vector<StmtCode> body;       // kIf then / kWhile body
  std::vector<StmtCode> else_body;  // kIf else
  const Action* src = nullptr;
};

struct HandlerCode {
  const EventDecl* decl = nullptr;
  std::uint32_t frame_size = 0;
  // Frame slot of the `as` / recv binding; -1 when there is none.
  int binding_slot = -1;
  // kVarTrigger: register slot of the triggering machine variable; -1
  // when the event names no machine variable.
  int trigger_reg = -1;
  std::vector<StmtCode> body;
};

struct StateLocalCode {
  const VarDecl* decl = nullptr;
  std::uint32_t reg = 0;  // register slot
  ExprCode init;          // kAbsent: the type's default
};

struct StateCode {
  std::string name;
  std::vector<StateLocalCode> locals;  // declaration order
  std::vector<HandlerCode> handlers;   // parallel to CompiledState::events
};

struct FunctionCode {
  const FuncDecl* decl = nullptr;
  std::uint32_t frame_size = 0;
  std::vector<std::uint32_t> param_slots;  // frame slot of each parameter
  std::vector<StmtCode> body;
};

struct MachineCode {
  // Register slot → name: the machine variables first (n_vars of them, in
  // CompiledMachine::vars order), then every state's locals.
  std::vector<std::string> names;
  std::size_t n_vars = 0;
  std::vector<ExprCode> var_inits;  // per machine variable; kAbsent = none
  std::vector<StateCode> states;    // parallel to CompiledMachine::states
  // Parallel to Program::functions, lowered against this machine's
  // registers.
  std::vector<FunctionCode> functions;

  // Name lookups of the slot → name table, for the hosts and the static
  // tools; the VM itself never looks a name up. -1 when absent.
  int state_index(std::string_view name) const;
  int var_slot(std::string_view name) const;  // machine variables only
};

// Lowers every handler, initializer and program function of `machine`.
std::shared_ptr<const MachineCode> lower_machine(
    const CompiledMachine& machine);

// Lowers one expression of the machine's program in the scope of its
// machine variables alone (no state locals, no frame): the static
// analyses evaluate initializer parts and place directives this way.
ExprCode lower_expr(const CompiledMachine& machine, const Expr& e);

}  // namespace farm::almanac
