// Runtime values of the Almanac language.
//
// Almanac is dynamically checked at the value level (the type checker
// verifies declarations; expressions are validated structurally), so the
// interpreter manipulates a tagged union covering every `typ` of Fig. 3
// plus the runtime-library structs of List. 1 (Poll/Probe triggers,
// Resources, statistics snapshots, TCAM rules).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "asic/tcam.h"
#include "net/filter.h"
#include "net/packet.h"
#include "net/sketch.h"
#include "util/check.h"

namespace farm::almanac {

class Value;

// `action` values describe a data-plane action a seed may attach to a TCAM
// rule (the HH example's hitterAction).
struct ActionValue {
  asic::RuleAction action = asic::RuleAction::kCount;
  double rate_limit_bps = 0;
  friend bool operator==(const ActionValue&, const ActionValue&) = default;
};

// Poll / Probe trigger payloads (List. 1: struct Poll { int ival; filter
// what; }). `ival` is kept in seconds as a double; the paper's expression
// `10/res().PCIe` evaluates to fractional seconds.
struct TriggerSpec {
  double ival_seconds = 0;
  net::Filter what;
  bool operator==(const TriggerSpec& o) const {
    return ival_seconds == o.ival_seconds &&
           what.canonical_key() == o.what.canonical_key();
  }
};

// One polled statistics entry as delivered to a seed. For port subjects
// `iface` is the interface index; for rule subjects `rule` identifies the
// TCAM rule.
struct StatEntry {
  std::string subject;
  int iface = -1;
  asic::RuleId rule = asic::kInvalidRule;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  friend bool operator==(const StatEntry&, const StatEntry&) = default;
};

struct StatsValue {
  std::shared_ptr<std::vector<StatEntry>> entries =
      std::make_shared<std::vector<StatEntry>>();
  bool operator==(const StatsValue& o) const { return entries == o.entries; }
};

// Resource amounts visible through res() (List. 1). Units: vCPU in cores,
// RAM in MB, TCAM in entries, PCIe in polling-bandwidth share (Mbps).
struct ResourcesValue {
  double vCPU = 0;
  double RAM = 0;
  double TCAM = 0;
  double PCIe = 0;
  friend bool operator==(const ResourcesValue&, const ResourcesValue&) = default;

  static const std::vector<std::string>& field_names();
};

// The reference allocation: what a soil grants a seed deployed without
// one, and where the seeder's and Sickle's poll analyses evaluate poll
// intervals that are not linear in res().
inline constexpr ResourcesValue kReferenceAlloc{1, 128, 32, 1};

using ListValue = std::shared_ptr<std::vector<Value>>;

// Sketch state (§VIII future-work extension): a count-min sketch, a
// Misra-Gries summary, or a HyperLogLog, held by reference like lists —
// seed-local mutable state.
struct SketchValue {
  std::shared_ptr<net::CountMinSketch> cms;
  std::shared_ptr<net::MisraGries> mg;
  std::shared_ptr<net::HyperLogLog> hll;
  bool operator==(const SketchValue& o) const {
    return cms == o.cms && mg == o.mg && hll == o.hll;
  }
};

class Value {
 public:
  using Storage =
      std::variant<std::monostate, bool, std::int64_t, double, std::string,
                   ListValue, net::Filter, net::PacketHeader, ActionValue,
                   TriggerSpec, StatsValue, ResourcesValue, asic::TcamRule,
                   SketchValue>;

  Value() = default;
  Value(bool v) : v_(v) {}
  Value(std::int64_t v) : v_(v) {}
  Value(int v) : v_(static_cast<std::int64_t>(v)) {}
  Value(double v) : v_(v) {}
  Value(std::string v) : v_(std::move(v)) {}
  Value(const char* v) : v_(std::string(v)) {}
  Value(net::Filter v) : v_(std::move(v)) {}
  Value(net::PacketHeader v) : v_(v) {}
  Value(ActionValue v) : v_(v) {}
  Value(TriggerSpec v) : v_(std::move(v)) {}
  Value(StatsValue v) : v_(std::move(v)) {}
  Value(ResourcesValue v) : v_(v) {}
  Value(asic::TcamRule v) : v_(std::move(v)) {}
  Value(ListValue v) : v_(std::move(v)) {}
  Value(SketchValue v) : v_(std::move(v)) {}
  static Value empty_list() {
    return Value(std::make_shared<std::vector<Value>>());
  }

  bool is_nil() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_float() const { return std::holds_alternative<double>(v_); }
  bool is_numeric() const { return is_int() || is_float(); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_list() const { return std::holds_alternative<ListValue>(v_); }
  bool is_filter() const { return std::holds_alternative<net::Filter>(v_); }
  bool is_packet() const {
    return std::holds_alternative<net::PacketHeader>(v_);
  }
  bool is_action() const { return std::holds_alternative<ActionValue>(v_); }
  bool is_trigger() const { return std::holds_alternative<TriggerSpec>(v_); }
  bool is_stats() const { return std::holds_alternative<StatsValue>(v_); }
  bool is_resources() const {
    return std::holds_alternative<ResourcesValue>(v_);
  }
  bool is_rule() const { return std::holds_alternative<asic::TcamRule>(v_); }
  bool is_sketch() const { return std::holds_alternative<SketchValue>(v_); }

  // Typed reads: each checks the alternative (a mismatch aborts), so
  // callers test is_*() first. Inline: the seed VM reads them per operand.
  bool as_bool() const { return get<bool>("expected bool value"); }
  std::int64_t as_int() const {
    return get<std::int64_t>("expected int value");
  }
  double as_float() const {  // ints promote
    if (const auto* i = std::get_if<std::int64_t>(&v_))
      return static_cast<double>(*i);
    return get<double>("expected numeric value");
  }
  const std::string& as_string() const {
    return get<std::string>("expected string value");
  }
  const ListValue& as_list() const { return get<ListValue>("expected list value"); }
  const net::Filter& as_filter() const {
    return get<net::Filter>("expected filter value");
  }
  const net::PacketHeader& as_packet() const {
    return get<net::PacketHeader>("expected packet value");
  }
  const ActionValue& as_action() const {
    return get<ActionValue>("expected action value");
  }
  const TriggerSpec& as_trigger() const {
    return get<TriggerSpec>("expected trigger value");
  }
  TriggerSpec& as_trigger() {
    return const_cast<TriggerSpec&>(std::as_const(*this).as_trigger());
  }
  const StatsValue& as_stats() const {
    return get<StatsValue>("expected stats value");
  }
  const ResourcesValue& as_resources() const {
    return get<ResourcesValue>("expected resources value");
  }
  const asic::TcamRule& as_rule() const {
    return get<asic::TcamRule>("expected rule value");
  }
  const SketchValue& as_sketch() const {
    return get<SketchValue>("expected sketch value");
  }

  // Structural equality for message pattern matching & tests. Lists compare
  // element-wise; stats by pointer.
  bool equals(const Value& o) const;
  // Recursive copy with fresh backing storage for lists/stats. Messages are
  // serialized on the wire, so the receiver must never alias the sender's
  // mutable containers.
  Value deep_copy() const;
  std::string type_name() const;
  std::string to_string() const;

  const Storage& storage() const { return v_; }

 private:
  template <class T>
  const T& get(const char* mismatch) const {
    const T* p = std::get_if<T>(&v_);
    FARM_CHECK_MSG(p != nullptr, mismatch);
    return *p;
  }

  Storage v_;
};

}  // namespace farm::almanac
