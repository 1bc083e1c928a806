// Machine-readable bench results: BENCH_<name>.json next to the stdout
// tables.
//
// Every figure/table bench prints a human-oriented table and exits with a
// shape-check status; trend tracking across commits needs the numbers in a
// stable schema instead of scraping printf columns. A BenchJson collects
// (metric, value, unit, params) records during the run and writes
//
//   {"bench":"<name>","results":[
//     {"metric":"bytes_per_minute","value":1.2e4,"unit":"B/min",
//      "params":{"ports":384,"system":"FARM"}}, ...]}
//
// on destruction (or explicit write()). Stdout stays byte-identical — the
// JSON is a side artifact.
//
// Output directory: $FARM_BENCH_DIR when set; otherwise the nearest
// ancestor of the working directory that looks like the repo root
// (ROADMAP.md + CMakeLists.txt); otherwise the working directory itself.
// Benches run from build/bench/ under ctest and from the repo root in
// scripts — without the walk-up, half the artifacts landed in build trees
// that get wiped.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "telemetry/export.h"

namespace farm::bench {

struct BenchParam {
  std::string key;
  std::string value;  // pre-rendered JSON value (quoted or numeric)
};

inline std::string bench_json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // JSON has no inf/nan literals; null keeps the document valid.
  std::string s = buf;
  if (s.find("inf") != std::string::npos || s.find("nan") != std::string::npos)
    return "null";
  return s;
}

inline BenchParam param(std::string_view key, double value) {
  return {std::string(key), bench_json_num(value)};
}
inline BenchParam param(std::string_view key, int value) {
  return {std::string(key), std::to_string(value)};
}
inline BenchParam param(std::string_view key, std::string_view value) {
  return {std::string(key), "\"" + telemetry::json_escape(value) + "\""};
}

// Resolves where BENCH_*.json artifacts go (see file comment).
inline std::filesystem::path bench_output_dir() {
  if (const char* env = std::getenv("FARM_BENCH_DIR"); env && *env)
    return env;
  std::error_code ec;
  auto dir = std::filesystem::current_path(ec);
  if (ec) return ".";
  for (auto d = dir; !d.empty(); d = d.parent_path()) {
    if (std::filesystem::exists(d / "ROADMAP.md", ec) &&
        std::filesystem::exists(d / "CMakeLists.txt", ec))
      return d;
    if (d == d.root_path()) break;
  }
  return dir;
}

class BenchJson {
 public:
  explicit BenchJson(std::string_view name) : name_(name) {}
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() { write(); }

  void record(std::string_view metric, double value, std::string_view unit,
              std::vector<BenchParam> params = {}) {
    std::string row = "{\"metric\":\"" + telemetry::json_escape(metric) +
                      "\",\"value\":" + bench_json_num(value) +
                      ",\"unit\":\"" + telemetry::json_escape(unit) + "\"";
    row += ",\"params\":{";
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i) row += ",";
      row += "\"" + telemetry::json_escape(params[i].key) +
             "\":" + params[i].value;
    }
    row += "}}";
    rows_.push_back(std::move(row));
  }

  // Writes BENCH_<name>.json in bench_output_dir(); idempotent (later
  // records trigger a rewrite from the destructor). False on I/O failure.
  // Runs unconditionally from the destructor so the artifact exists even
  // when the bench's shape check fails and it exits non-zero.
  bool write() {
    std::ofstream os(bench_output_dir() / ("BENCH_" + name_ + ".json"));
    if (!os) return false;
    os << "{\"bench\":\"" << telemetry::json_escape(name_)
       << "\",\"results\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i) os << ",";
      os << "\n" << rows_[i];
    }
    os << "]}\n";
    return os.good();
  }

 private:
  std::string name_;
  std::vector<std::string> rows_;
};

}  // namespace farm::bench
