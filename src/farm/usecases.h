// The 16 Table I monitoring & attack-detection use cases, written in
// Almanac. Each use case bundles its program source — the only copy lives
// in examples/almanac/*.alm, embedded at configure time — and the machine
// to instantiate; per-use-case harvesters live in harvesters.h.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "almanac/value.h"

namespace farm::core {

struct UseCase {
  std::string name;           // Table I row
  std::string source;         // Almanac program
  std::vector<std::string> machines;
  // Empty for every use case: each program's externals have initializers.
  std::unordered_map<std::string, almanac::Value> default_externals;
  // Lines of Almanac code (non-blank, non-comment) — the Table I "Seed"
  // column equivalent; computed from `source`.
  int seed_loc = 0;
};

// All use cases (17 rows: hierarchical HH appears twice — standalone and
// inherited — exactly as in Table I).
const std::vector<UseCase>& all_use_cases();

// Extension use cases beyond Table I — the paper's §VIII future-work item
// of integrating sketches: bounded-memory variants of the distinct-count
// tasks built on the cms_*/hll_* builtins.
const std::vector<UseCase>& extension_use_cases();

// Lookup by Table I name; aborts on unknown name.
const UseCase& use_case(const std::string& name);

// Counts non-blank, non-comment lines — used for the Table I numbers.
int count_loc(const std::string& source);

}  // namespace farm::core
