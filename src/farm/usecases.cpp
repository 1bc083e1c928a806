#include "farm/usecases.h"

#include <span>
#include <sstream>
#include <string_view>

#include "util/check.h"

namespace farm::core {

namespace {

// examples/almanac/*.alm, embedded by src/farm/CMakeLists.txt.
struct EmbeddedProgram {
  std::string_view file;
  std::string_view source;
};
constexpr EmbeddedProgram kPrograms[] = {
#include "usecase_sources.inc"
};

std::string program_source(std::string_view file) {
  for (const auto& p : kPrograms)
    if (p.file == file) return std::string(p.source);
  FARM_CHECK_MSG(false, ("no embedded program " + std::string(file)).c_str());
}

struct Row {
  const char* name;  // Table I row
  const char* file;  // under examples/almanac/
  const char* machine;
};

constexpr Row kTable1[] = {
    {"Heavy hitter (HH)", "Heavy_hitter__HH_.alm", "HH"},
    // HHH extends HH in the same program: hitters, then a drill into /16
    // prefixes through per-prefix count rules. Table I lists it twice; the
    // inherited row counts only the subclass body (see all_use_cases()).
    {"Hier. HH (inherited)", "Hier__HH.alm", "HHH"},
    {"Hier. HH", "Hier__HH.alm", "HHH"},
    {"DDoS", "DDoS.alm", "DDoS"},
    {"New TCP conn.", "New_TCP_conn_.alm", "NewTCP"},
    {"TCP SYN flood", "TCP_SYN_flood.alm", "SynFlood"},
    // Connections opened but never closed.
    {"Partial TCP flow", "Partial_TCP_flow.alm", "PartialTCP"},
    // Many tiny long-lived HTTP connections.
    {"Slowloris", "Slowloris.alm", "Slowloris"},
    {"Link failure", "Link_failure.alm", "LinkFailure"},
    {"Traffic change", "Traffic_change.alm", "TrafficChange"},
    {"Flow size distr.", "Flow_size_distr_.alm", "FlowSizeDistr"},
    // One source contacting many destinations.
    {"Superspreader", "Superspreader.alm", "Superspreader"},
    {"SSH brute force", "SSH_brute_force.alm", "SshBruteForce"},
    {"Port scan", "Port_scan.alm", "PortScan"},
    {"DNS reflection", "DNS_reflection.alm", "DnsReflection"},
    {"Entropy estim.", "Entropy_estim_.alm", "EntropyEstim"},
    // SDN-aimed DoS protection.
    {"FloodDefender", "FloodDefender.alm", "FloodDefender"},
};

constexpr Row kExtensions[] = {
    // Sketches (§VIII future work): the superspreader over count-mins of
    // first-seen (src,dst) pairs and per-source fanout, and the entropy
    // estimate over a HyperLogLog — fixed memory regardless of stream size.
    {"Sketch superspreader (ext.)", "Sketch_superspreader__ext__.alm",
     "SketchSpreader"},
    {"Sketch entropy (ext.)", "Sketch_entropy__ext__.alm", "SketchEntropy"},
    // Winnow showcases: install loops with small constant bounds (4 spine
    // uplinks, 8 QoS lanes, 6 tenant quotas) that the RS pass scores at 48
    // iterations, so `almanac_tool optimize` and bench_winnow report a
    // large refined-TCAM reduction on exactly these seeds.
    {"Uplink guard (ext.)", "Uplink_guard__ext__.alm", "UplinkGuard"},
    {"QoS lane counters (ext.)", "QoS_lane_counters__ext__.alm",
     "LaneCounter"},
    {"Tenant quota sweep (ext.)", "Tenant_quota_sweep__ext__.alm",
     "QuotaSweep"},
};

std::vector<UseCase> build(std::span<const Row> rows) {
  std::vector<UseCase> out;
  for (const Row& row : rows) {
    UseCase uc;
    uc.name = row.name;
    uc.source = program_source(row.file);
    uc.machines = {row.machine};
    uc.seed_loc = count_loc(uc.source);
    out.push_back(std::move(uc));
  }
  return out;
}

}  // namespace

int count_loc(const std::string& source) {
  std::istringstream in(source);
  std::string line;
  int loc = 0;
  while (std::getline(in, line)) {
    auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line.compare(first, 2, "//") == 0) continue;
    ++loc;
  }
  return loc;
}

const std::vector<UseCase>& all_use_cases() {
  static const std::vector<UseCase> cases = [] {
    std::vector<UseCase> out = build(kTable1);
    // The inherited HHH row counts only what HHH adds to HH's program.
    out[1].seed_loc = out[2].seed_loc - out[0].seed_loc;
    return out;
  }();
  return cases;
}

const std::vector<UseCase>& extension_use_cases() {
  static const std::vector<UseCase> cases = build(kExtensions);
  return cases;
}

const UseCase& use_case(const std::string& name) {
  for (const auto& uc : all_use_cases())
    if (uc.name == name) return uc;
  FARM_CHECK_MSG(false, ("unknown use case: " + name).c_str());
}

}  // namespace farm::core
