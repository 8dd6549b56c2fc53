#include "net/headers.hpp"

#include <stdexcept>

#include "net/checksum.hpp"
#include "util/bytes.hpp"

namespace mtscope::net {

namespace {

using util::be_put_u16;
using util::be_put_u32;

/// TCP/UDP pseudo-header contribution to the transport checksum.
void feed_pseudo_header(ChecksumAccumulator& acc, Ipv4Addr src, Ipv4Addr dst, IpProto proto,
                        std::uint16_t transport_length) {
  acc.update_word(static_cast<std::uint16_t>(src.value() >> 16));
  acc.update_word(static_cast<std::uint16_t>(src.value() & 0xffff));
  acc.update_word(static_cast<std::uint16_t>(dst.value() >> 16));
  acc.update_word(static_cast<std::uint16_t>(dst.value() & 0xffff));
  acc.update_word(static_cast<std::uint16_t>(proto));
  acc.update_word(transport_length);
}

}  // namespace

void Ipv4Header::serialize(std::vector<std::uint8_t>& out) const {
  if (ihl < 5 || ihl > 15) throw std::invalid_argument("Ipv4Header: ihl out of range");
  const std::size_t start = out.size();
  out.push_back(static_cast<std::uint8_t>((4u << 4) | ihl));
  out.push_back(dscp_ecn);
  be_put_u16(out, total_length);
  be_put_u16(out, identification);
  be_put_u16(out, flags_fragment);
  out.push_back(ttl);
  out.push_back(static_cast<std::uint8_t>(protocol));
  be_put_u16(out, 0);  // checksum placeholder
  be_put_u32(out, src.value());
  be_put_u32(out, dst.value());
  // Zero-fill any option space implied by ihl > 5.
  out.resize(start + std::size_t{ihl} * 4, 0);
  const std::uint16_t sum = internet_checksum(
      std::span<const std::uint8_t>(out.data() + start, std::size_t{ihl} * 4));
  out[start + 10] = static_cast<std::uint8_t>(sum >> 8);
  out[start + 11] = static_cast<std::uint8_t>(sum & 0xff);
}

util::Result<Ipv4Header> Ipv4Header::parse(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  const std::uint8_t version_ihl = r.u8();
  Ipv4Header h;
  h.dscp_ecn = r.u8();
  h.total_length = r.be_u16();
  h.identification = r.be_u16();
  h.flags_fragment = r.be_u16();
  h.ttl = r.u8();
  h.protocol = static_cast<IpProto>(r.u8());
  h.checksum = r.be_u16();
  h.src = Ipv4Addr(r.be_u32());
  h.dst = Ipv4Addr(r.be_u32());
  if (!r.ok()) {
    return util::make_error("ipv4.truncated", "buffer shorter than 20 bytes");
  }
  if ((version_ihl >> 4) != 4) return util::make_error("ipv4.version", "not an IPv4 packet");
  h.ihl = version_ihl & 0x0f;
  if (h.ihl < 5) return util::make_error("ipv4.ihl", "ihl below minimum");
  const std::size_t header_len = std::size_t{h.ihl} * 4;
  if (!r.skip(header_len - kMinSize)) {
    return util::make_error("ipv4.truncated", "buffer shorter than ihl indicates");
  }
  if (h.total_length < header_len) {
    return util::make_error("ipv4.length", "total_length smaller than header");
  }
  if (internet_checksum(bytes.first(header_len)) != 0) {
    return util::make_error("ipv4.checksum", "header checksum mismatch");
  }
  return h;
}

void TcpHeader::serialize(std::vector<std::uint8_t>& out, Ipv4Addr src, Ipv4Addr dst,
                          std::span<const std::uint8_t> payload) const {
  if (data_offset < 5 || data_offset > 15) {
    throw std::invalid_argument("TcpHeader: data_offset out of range");
  }
  const std::size_t start = out.size();
  const std::size_t header_len = std::size_t{data_offset} * 4;
  be_put_u16(out, src_port);
  be_put_u16(out, dst_port);
  be_put_u32(out, seq);
  be_put_u32(out, ack);
  out.push_back(static_cast<std::uint8_t>(data_offset << 4));
  out.push_back(flags);
  be_put_u16(out, window);
  be_put_u16(out, 0);  // checksum placeholder
  be_put_u16(out, urgent);
  out.resize(start + header_len, 0);  // zero option bytes
  out.insert(out.end(), payload.begin(), payload.end());

  ChecksumAccumulator acc;
  const auto transport_len = static_cast<std::uint16_t>(header_len + payload.size());
  feed_pseudo_header(acc, src, dst, IpProto::kTcp, transport_len);
  acc.update(std::span<const std::uint8_t>(out.data() + start, transport_len));
  const std::uint16_t sum = acc.finish();
  out[start + 16] = static_cast<std::uint8_t>(sum >> 8);
  out[start + 17] = static_cast<std::uint8_t>(sum & 0xff);
}

util::Result<TcpHeader> TcpHeader::parse(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  TcpHeader h;
  h.src_port = r.be_u16();
  h.dst_port = r.be_u16();
  h.seq = r.be_u32();
  h.ack = r.be_u32();
  h.data_offset = r.u8() >> 4;
  h.flags = r.u8();
  h.window = r.be_u16();
  h.checksum = r.be_u16();
  h.urgent = r.be_u16();
  if (!r.ok()) {
    return util::make_error("tcp.truncated", "buffer shorter than 20 bytes");
  }
  if (h.data_offset < 5) return util::make_error("tcp.offset", "data offset below minimum");
  if (!r.skip(std::size_t{h.data_offset} * 4 - kMinSize)) {
    return util::make_error("tcp.truncated", "buffer shorter than data offset indicates");
  }
  return h;
}

void UdpHeader::serialize(std::vector<std::uint8_t>& out, Ipv4Addr src, Ipv4Addr dst,
                          std::span<const std::uint8_t> payload) const {
  const std::size_t start = out.size();
  const auto total = static_cast<std::uint16_t>(kSize + payload.size());
  be_put_u16(out, src_port);
  be_put_u16(out, dst_port);
  be_put_u16(out, total);
  be_put_u16(out, 0);  // checksum placeholder
  out.insert(out.end(), payload.begin(), payload.end());

  ChecksumAccumulator acc;
  feed_pseudo_header(acc, src, dst, IpProto::kUdp, total);
  acc.update(std::span<const std::uint8_t>(out.data() + start, total));
  std::uint16_t sum = acc.finish();
  if (sum == 0) sum = 0xffff;  // RFC 768: transmitted zero means "no checksum"
  out[start + 6] = static_cast<std::uint8_t>(sum >> 8);
  out[start + 7] = static_cast<std::uint8_t>(sum & 0xff);
}

util::Result<UdpHeader> UdpHeader::parse(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  UdpHeader h;
  h.src_port = r.be_u16();
  h.dst_port = r.be_u16();
  h.length = r.be_u16();
  h.checksum = r.be_u16();
  if (!r.ok()) return util::make_error("udp.truncated", "buffer shorter than 8 bytes");
  if (h.length < kSize) return util::make_error("udp.length", "length below header size");
  return h;
}

void IcmpHeader::serialize(std::vector<std::uint8_t>& out,
                           std::span<const std::uint8_t> payload) const {
  const std::size_t start = out.size();
  out.push_back(type);
  out.push_back(code);
  be_put_u16(out, 0);  // checksum placeholder
  be_put_u32(out, rest);
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint16_t sum = internet_checksum(
      std::span<const std::uint8_t>(out.data() + start, kSize + payload.size()));
  out[start + 2] = static_cast<std::uint8_t>(sum >> 8);
  out[start + 3] = static_cast<std::uint8_t>(sum & 0xff);
}

util::Result<IcmpHeader> IcmpHeader::parse(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  IcmpHeader h;
  h.type = r.u8();
  h.code = r.u8();
  h.checksum = r.be_u16();
  h.rest = r.be_u32();
  if (!r.ok()) return util::make_error("icmp.truncated", "buffer shorter than 8 bytes");
  return h;
}

util::Result<ParsedPacket> parse_packet(std::span<const std::uint8_t> bytes) {
  auto ip = Ipv4Header::parse(bytes);
  if (!ip.ok()) return ip.error();
  ParsedPacket out;
  out.ip = ip.value();
  const std::size_t ip_header_len = std::size_t{out.ip.ihl} * 4;
  const auto rest = bytes.subspan(ip_header_len);
  switch (out.ip.protocol) {
    case IpProto::kTcp: {
      auto tcp = TcpHeader::parse(rest);
      if (!tcp.ok()) return tcp.error();
      out.src_port = tcp.value().src_port;
      out.dst_port = tcp.value().dst_port;
      out.tcp_flags = tcp.value().flags;
      break;
    }
    case IpProto::kUdp: {
      auto udp = UdpHeader::parse(rest);
      if (!udp.ok()) return udp.error();
      out.src_port = udp.value().src_port;
      out.dst_port = udp.value().dst_port;
      break;
    }
    case IpProto::kIcmp: {
      auto icmp = IcmpHeader::parse(rest);
      if (!icmp.ok()) return icmp.error();
      break;
    }
    default:
      return util::make_error("ip.protocol", "unsupported transport protocol");
  }
  return out;
}

std::vector<std::uint8_t> synthesize_packet(Ipv4Addr src, Ipv4Addr dst, IpProto proto,
                                            std::uint16_t src_port, std::uint16_t dst_port,
                                            std::uint8_t tcp_flags,
                                            std::uint16_t ip_total_length) {
  std::vector<std::uint8_t> out;
  out.reserve(ip_total_length);

  std::size_t transport_header = 0;
  std::uint8_t tcp_offset_words = 5;
  switch (proto) {
    case IpProto::kTcp: {
      // Model TCP options via the data offset: a 48-byte SYN (paper's second
      // most common size) is 20 IP + 28 TCP, i.e. data_offset 7.
      const std::size_t budget =
          ip_total_length > Ipv4Header::kMinSize ? ip_total_length - Ipv4Header::kMinSize : 0;
      if (budget >= TcpHeader::kMinSize) {
        const std::size_t option_space = std::min<std::size_t>(budget - TcpHeader::kMinSize, 40);
        tcp_offset_words = static_cast<std::uint8_t>(5 + option_space / 4);
      }
      transport_header = std::size_t{tcp_offset_words} * 4;
      break;
    }
    case IpProto::kUdp:
      transport_header = UdpHeader::kSize;
      break;
    case IpProto::kIcmp:
      transport_header = IcmpHeader::kSize;
      break;
  }

  const std::size_t min_total = Ipv4Header::kMinSize + transport_header;
  const std::size_t total = std::max<std::size_t>(ip_total_length, min_total);
  const std::size_t payload_len = total - min_total;
  const std::vector<std::uint8_t> payload(payload_len, 0);

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(total);
  ip.protocol = proto;
  ip.src = src;
  ip.dst = dst;
  ip.serialize(out);

  switch (proto) {
    case IpProto::kTcp: {
      TcpHeader tcp;
      tcp.src_port = src_port;
      tcp.dst_port = dst_port;
      tcp.flags = tcp_flags;
      tcp.data_offset = tcp_offset_words;
      tcp.serialize(out, src, dst, payload);
      break;
    }
    case IpProto::kUdp: {
      UdpHeader udp;
      udp.src_port = src_port;
      udp.dst_port = dst_port;
      udp.serialize(out, src, dst, payload);
      break;
    }
    case IpProto::kIcmp: {
      IcmpHeader icmp;
      icmp.serialize(out, payload);
      break;
    }
  }
  return out;
}

}  // namespace mtscope::net
