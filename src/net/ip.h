// IPv4 addresses and CIDR prefixes.
//
// Almanac filter expressions reference literal addresses and prefixes
// ("srcIP \"10.1.1.4\" and dstIP \"10.0.1.0/24\""); TCAM rules and the SDN
// path oracle match on the same types.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace farm::net {

class Ipv4 {
 public:
  constexpr Ipv4() = default;
  constexpr explicit Ipv4(std::uint32_t v) : value_(v) {}
  constexpr Ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                 std::uint8_t d)
      : value_((std::uint32_t(a) << 24) | (std::uint32_t(b) << 16) |
               (std::uint32_t(c) << 8) | d) {}

  // Parses dotted-quad notation; returns nullopt on malformed input.
  static std::optional<Ipv4> parse(std::string_view s);

  constexpr std::uint32_t value() const { return value_; }
  std::string to_string() const;
  friend constexpr auto operator<=>(Ipv4, Ipv4) = default;

 private:
  std::uint32_t value_ = 0;
};

// A CIDR prefix; length 0 matches everything, 32 a single host.
class Prefix {
 public:
  constexpr Prefix() = default;  // 0.0.0.0/0 — matches all
  constexpr Prefix(Ipv4 addr, int len)
      : addr_(Ipv4(len == 0 ? 0 : (addr.value() & mask(len)))), len_(len) {}
  constexpr static Prefix host(Ipv4 addr) { return Prefix(addr, 32); }
  constexpr static Prefix any() { return Prefix(); }

  // Parses "a.b.c.d/len" or a bare address (treated as /32).
  static std::optional<Prefix> parse(std::string_view s);

  constexpr bool contains(Ipv4 ip) const {
    return len_ == 0 || (ip.value() & mask(len_)) == addr_.value();
  }
  constexpr bool contains(const Prefix& other) const {
    return len_ <= other.len_ && contains(other.addr_);
  }
  constexpr bool overlaps(const Prefix& other) const {
    return contains(other) || other.contains(*this);
  }

  constexpr Ipv4 address() const { return addr_; }
  constexpr int length() const { return len_; }
  std::string to_string() const;
  friend constexpr auto operator<=>(const Prefix&, const Prefix&) = default;

 private:
  static constexpr std::uint32_t mask(int len) {
    return len == 0 ? 0u : ~0u << (32 - len);
  }
  Ipv4 addr_;
  int len_ = 0;
};

}  // namespace farm::net
