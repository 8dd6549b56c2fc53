// Minimal libpcap-format file writer/reader (LINKTYPE_RAW: packets start at
// the IPv4 header).  Telescope observers persist their captures in this
// format so downstream analyses can parse raw packets, mirroring the paper's
// use of telescope PCAPs for port statistics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "util/result.hpp"

namespace mtscope::net {

/// One captured packet: microsecond timestamp plus raw bytes.
struct CapturedPacket {
  std::uint64_t timestamp_us = 0;
  std::vector<std::uint8_t> data;
};

/// Streaming pcap writer (classic pcap, magic 0xa1b2c3d4, LINKTYPE_RAW=101).
class PcapWriter {
 public:
  /// Writes the global header immediately.
  explicit PcapWriter(std::ostream& out, std::uint32_t snaplen = 65535);

  void write(std::uint64_t timestamp_us, std::span<const std::uint8_t> packet);

  [[nodiscard]] std::uint64_t packets_written() const noexcept { return packets_; }

 private:
  std::ostream& out_;
  std::uint32_t snaplen_;
  std::uint64_t packets_ = 0;
};

/// Whole-file pcap reader.  Accepts only the little-endian microsecond
/// variant this library writes (sufficient for round-tripping; foreign
/// captures with other magics produce a clean error, not garbage).  A
/// record longer than the file's snaplen or than an IPv4 packet (65535
/// bytes) is pcap.record.
[[nodiscard]] util::Result<std::vector<CapturedPacket>> read_pcap(std::istream& in);

}  // namespace mtscope::net
