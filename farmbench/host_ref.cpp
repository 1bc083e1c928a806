#include "host_ref.h"

#include <chrono>

namespace farmbench {

namespace {

constexpr int kKeys = 512;
constexpr int kProbes = 4096;

// splitmix64: a fixed key schedule independent of any library's RNG.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Keys shaped like FARM's own metric and subject names (~30 bytes, so the
// strings live on the heap like the program's).
std::string key(int i) {
  return "soil.leaf" + std::to_string(i % 16) + ".subject." +
         std::to_string(mix(static_cast<std::uint64_t>(i)) % 1000000007ull);
}

}  // namespace

HostRef::HostRef() {
  table_.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i)
    table_.emplace(key(i), mix(static_cast<std::uint64_t>(i) + 7));
  probes_.reserve(kProbes);
  // One probe in eight misses, as subject lookups sometimes do.
  for (int i = 0; i < kProbes; ++i) {
    const std::uint64_t r = mix(static_cast<std::uint64_t>(i) + 1000003);
    probes_.push_back(r % 8 == 0 ? key(kKeys + static_cast<int>(r % 997))
                                 : key(static_cast<int>(r % kKeys)));
  }
}

std::uint64_t HostRef::slice_ns() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sum = checksum_;
  std::size_t c = cursor_;
  for (int i = 0; i < kSliceLookups; ++i) {
    auto it = table_.find(probes_[c]);
    sum += it == table_.end() ? 1 : it->second;
    if (++c == probes_.size()) c = 0;
  }
  const auto t1 = std::chrono::steady_clock::now();
  cursor_ = c;
  checksum_ = sum;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

}  // namespace farmbench
