#include "net/pcap.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/bytes.hpp"

namespace mtscope::net {

namespace {

constexpr std::uint32_t kMagic = 0xa1b2c3d4;  // classic pcap, microseconds
constexpr std::uint32_t kLinkTypeRaw = 101;

void put_u32le(std::ostream& out, std::uint32_t v) {
  const char bytes[4] = {
      static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
      static_cast<char>((v >> 16) & 0xff), static_cast<char>((v >> 24) & 0xff)};
  out.write(bytes, 4);
}

void put_u16le(std::ostream& out, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff)};
  out.write(bytes, 2);
}

// The largest record a LINKTYPE_RAW IPv4 capture can hold: an IPv4
// packet's total_length is a u16.
constexpr std::uint32_t kMaxRecordBytes = 65535;

/// Read up to out.size() bytes; a short read (EOF) leaves the rest unread
/// and the returned reader shorter.
util::ByteReader read_some(std::istream& in, std::span<std::uint8_t> out) {
  in.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(out.size()));
  return util::ByteReader(out.first(static_cast<std::size_t>(in.gcount())));
}

}  // namespace

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t snaplen)
    : out_(out), snaplen_(snaplen) {
  put_u32le(out_, kMagic);
  put_u16le(out_, 2);   // version major
  put_u16le(out_, 4);   // version minor
  put_u32le(out_, 0);   // thiszone
  put_u32le(out_, 0);   // sigfigs
  put_u32le(out_, snaplen_);
  put_u32le(out_, kLinkTypeRaw);
}

void PcapWriter::write(std::uint64_t timestamp_us, std::span<const std::uint8_t> packet) {
  const auto captured = static_cast<std::uint32_t>(
      packet.size() > snaplen_ ? snaplen_ : packet.size());
  put_u32le(out_, static_cast<std::uint32_t>(timestamp_us / 1'000'000));
  put_u32le(out_, static_cast<std::uint32_t>(timestamp_us % 1'000'000));
  put_u32le(out_, captured);
  put_u32le(out_, static_cast<std::uint32_t>(packet.size()));
  out_.write(reinterpret_cast<const char*>(packet.data()), captured);
  ++packets_;
}

util::Result<std::vector<CapturedPacket>> read_pcap(std::istream& in) {
  std::uint8_t global[24];
  util::ByteReader header = read_some(in, global);
  const std::uint32_t magic = header.le_u32();
  if (!header.ok()) return util::make_error("pcap.truncated", "missing global header");
  if (magic != kMagic) {
    return util::make_error("pcap.magic", "unsupported pcap magic (expect LE microsecond pcap)");
  }
  header.skip(12);  // version (2+2), thiszone (4), sigfigs (4)
  const std::uint32_t snaplen = header.le_u32();
  const std::uint32_t linktype = header.le_u32();
  if (!header.ok()) return util::make_error("pcap.truncated", "global header too short");
  if (linktype != kLinkTypeRaw) {
    return util::make_error("pcap.linktype", "expected LINKTYPE_RAW (101)");
  }

  std::vector<CapturedPacket> packets;
  for (;;) {
    std::uint8_t raw[16];
    util::ByteReader record = read_some(in, raw);
    const std::uint32_t sec = record.le_u32();
    if (!record.ok()) break;  // clean EOF
    const std::uint32_t usec = record.le_u32();
    const std::uint32_t incl_len = record.le_u32();
    record.skip(4);  // orig_len
    if (!record.ok()) return util::make_error("pcap.truncated", "packet header cut short");
    if (incl_len > std::min(snaplen, kMaxRecordBytes)) {
      return util::make_error("pcap.record", "captured length exceeds snaplen or 65535");
    }
    CapturedPacket p;
    p.timestamp_us = std::uint64_t{sec} * 1'000'000 + usec;
    p.data.resize(incl_len);
    if (!in.read(reinterpret_cast<char*>(p.data.data()), incl_len)) {
      return util::make_error("pcap.truncated", "packet body cut short");
    }
    packets.push_back(std::move(p));
  }
  return packets;
}

}  // namespace mtscope::net
