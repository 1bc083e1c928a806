#include "almanac/value.h"

#include <cmath>

namespace farm::almanac {

const std::vector<std::string>& ResourcesValue::field_names() {
  static const std::vector<std::string> names{"vCPU", "RAM", "TCAM", "PCIe"};
  return names;
}

bool Value::equals(const Value& o) const {
  if (v_.index() != o.v_.index()) {
    // int/float cross-compare numerically.
    if (is_numeric() && o.is_numeric()) return as_float() == o.as_float();
    return false;
  }
  if (is_list()) {
    const auto& a = *as_list();
    const auto& b = *o.as_list();
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (!a[i].equals(b[i])) return false;
    return true;
  }
  if (is_filter())
    return as_filter().canonical_key() == o.as_filter().canonical_key();
  if (is_rule()) return as_rule().id == o.as_rule().id;
  return v_ == o.v_;
}

Value Value::deep_copy() const {
  if (is_list()) {
    auto out = std::make_shared<std::vector<Value>>();
    out->reserve(as_list()->size());
    for (const auto& v : *as_list()) out->push_back(v.deep_copy());
    return Value(std::move(out));
  }
  if (is_stats()) {
    StatsValue s;
    *s.entries = *as_stats().entries;
    return Value(std::move(s));
  }
  return *this;
}

std::string Value::type_name() const {
  switch (v_.index()) {
    case 0:
      return "nil";
    case 1:
      return "bool";
    case 2:
      return "long";
    case 3:
      return "float";
    case 4:
      return "string";
    case 5:
      return "list";
    case 6:
      return "filter";
    case 7:
      return "packet";
    case 8:
      return "action";
    case 9:
      return "trigger";
    case 10:
      return "stats";
    case 11:
      return "resources";
    case 12:
      return "rule";
    case 13:
      return "sketch";
  }
  return "?";
}

std::string Value::to_string() const {
  if (is_nil()) return "nil";
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_int()) return std::to_string(as_int());
  if (is_float()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", as_float());
    return buf;
  }
  if (is_string()) return "\"" + as_string() + "\"";
  if (is_list()) {
    std::string s = "[";
    for (const auto& v : *as_list()) {
      if (s.size() > 1) s += ", ";
      s += v.to_string();
    }
    return s + "]";
  }
  if (is_filter()) return as_filter().to_string();
  if (is_packet()) return as_packet().to_string();
  if (is_action()) return "action(" + asic::to_string(as_action().action) + ")";
  if (is_trigger()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "trigger(ival=%gs)",
                  as_trigger().ival_seconds);
    return buf;
  }
  if (is_stats())
    return "stats[" + std::to_string(as_stats().entries->size()) + "]";
  if (is_resources()) {
    const auto& r = as_resources();
    char buf[96];
    std::snprintf(buf, sizeof buf, "res(vCPU=%g,RAM=%g,TCAM=%g,PCIe=%g)",
                  r.vCPU, r.RAM, r.TCAM, r.PCIe);
    return buf;
  }
  if (is_rule()) return "rule#" + std::to_string(as_rule().id);
  if (is_sketch())
    return as_sketch().cms  ? "sketch(cms)"
           : as_sketch().mg ? "sketch(mg)"
                            : "sketch(hll)";
  return "?";
}

}  // namespace farm::almanac
