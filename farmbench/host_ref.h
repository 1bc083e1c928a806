// Host reference kernel: a fixed string-keyed hash-table lookup loop whose
// rate stands for "how fast is this host right now". The benchmark runs it
// in short slices between its timed calls and scales every timing metric by
// the measured rate over a nominal one, so a shared host that slows down
// for a while moves the raw times but not the scaled ones.
//
// Rules the kernel keeps (README.md, "Scaling"):
//   * a small working set (512 keys) built once — no allocation in a slice;
//   * compiled in its own library with pinned flags, so the project's
//     compile options cannot change it;
//   * no FARM code on its path.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace farmbench {

class HostRef {
 public:
  // Lookups a slice performs; about a millisecond on a 2020s server core.
  static constexpr int kSliceLookups = 20000;

  HostRef();
  HostRef(const HostRef&) = delete;
  HostRef& operator=(const HostRef&) = delete;

  // Runs one slice; returns its wall time in nanoseconds.
  std::uint64_t slice_ns();
  // A value that depends on every lookup, so no slice can be optimized out.
  std::uint64_t checksum() const { return checksum_; }

 private:
  std::unordered_map<std::string, std::uint64_t> table_;
  std::vector<std::string> probes_;
  std::size_t cursor_ = 0;
  std::uint64_t checksum_ = 0;
};

// Accumulates reference slices for one phase of a run. rate() is lookups per
// second over every slice of the phase.
struct RefMeter {
  std::uint64_t lookups = 0;
  std::uint64_t ns = 0;
  int slices = 0;

  void add(std::uint64_t slice_ns) {
    lookups += HostRef::kSliceLookups;
    ns += slice_ns;
    ++slices;
  }
  void merge(const RefMeter& o) {
    lookups += o.lookups;
    ns += o.ns;
    slices += o.slices;
  }
  double rate() const {
    return ns ? static_cast<double>(lookups) * 1e9 / static_cast<double>(ns)
              : 0.0;
  }
};

}  // namespace farmbench
