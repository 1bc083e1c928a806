// Packet headers and flow keys.
//
// The simulator works at flow/statistics granularity (seeds poll counters;
// sFlow samples packets), but sampled packets carry real headers so that
// payload/flag-sensitive use cases (SYN flood, port scan, DNS reflection,
// Slowloris) exercise the same predicate logic they would on hardware.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "net/ip.h"

namespace farm::net {

enum class Proto : std::uint8_t { kTcp = 6, kUdp = 17, kIcmp = 1 };

// TCP flag bits (subset used by the monitoring use cases).
struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  friend constexpr bool operator==(TcpFlags, TcpFlags) = default;
};

struct PacketHeader {
  Ipv4 src_ip;
  Ipv4 dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Proto proto = Proto::kTcp;
  TcpFlags flags;
  std::uint32_t size_bytes = 0;

  friend constexpr bool operator==(const PacketHeader&,
                                   const PacketHeader&) = default;
  std::string to_string() const;
};

// Canonical 5-tuple identifying a flow.
struct FlowKey {
  Ipv4 src_ip;
  Ipv4 dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Proto proto = Proto::kTcp;

  friend constexpr auto operator<=>(const FlowKey&, const FlowKey&) = default;
  static FlowKey of(const PacketHeader& h) {
    return {h.src_ip, h.dst_ip, h.src_port, h.dst_port, h.proto};
  }
  std::string to_string() const;
};

inline std::string PacketHeader::to_string() const {
  return src_ip.to_string() + ":" + std::to_string(src_port) + "->" +
         dst_ip.to_string() + ":" + std::to_string(dst_port);
}

inline std::string FlowKey::to_string() const {
  return src_ip.to_string() + ":" + std::to_string(src_port) + "->" +
         dst_ip.to_string() + ":" + std::to_string(dst_port) + "/" +
         std::to_string(static_cast<int>(proto));
}

}  // namespace farm::net
