#include "net/headers.hpp"

#include <gtest/gtest.h>

#include "net/checksum.hpp"

namespace mtscope::net {
namespace {

TEST(Ipv4Header, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.total_length = 40;
  h.identification = 0x1234;
  h.ttl = 57;
  h.protocol = IpProto::kTcp;
  h.src = Ipv4Addr::from_octets(10, 1, 2, 3);
  h.dst = Ipv4Addr::from_octets(198, 51, 100, 7);

  std::vector<std::uint8_t> wire;
  h.serialize(wire);
  ASSERT_EQ(wire.size(), Ipv4Header::kMinSize);

  auto parsed = Ipv4Header::parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().src, h.src);
  EXPECT_EQ(parsed.value().dst, h.dst);
  EXPECT_EQ(parsed.value().total_length, 40);
  EXPECT_EQ(parsed.value().identification, 0x1234);
  EXPECT_EQ(parsed.value().ttl, 57);
}

TEST(Ipv4Header, ChecksumValidated) {
  Ipv4Header h;
  h.total_length = 40;
  std::vector<std::uint8_t> wire;
  h.serialize(wire);
  wire[8] ^= 0xff;  // corrupt TTL
  auto parsed = Ipv4Header::parse(wire);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, "ipv4.checksum");
}

TEST(Ipv4Header, RejectsTruncationAndBadVersion) {
  std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_FALSE(Ipv4Header::parse(tiny).ok());

  Ipv4Header h;
  h.total_length = 40;
  std::vector<std::uint8_t> wire;
  h.serialize(wire);
  wire[0] = (6u << 4) | 5;  // IPv6 version nibble
  EXPECT_EQ(Ipv4Header::parse(wire).error().code, "ipv4.version");
}

TEST(Ipv4Header, OptionsViaIhl) {
  Ipv4Header h;
  h.ihl = 7;  // 8 option bytes
  h.total_length = 48;
  std::vector<std::uint8_t> wire;
  h.serialize(wire);
  ASSERT_EQ(wire.size(), 28u);
  auto parsed = Ipv4Header::parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().ihl, 7);
}

TEST(TcpHeader, RoundTripWithChecksum) {
  const Ipv4Addr src = Ipv4Addr::from_octets(1, 2, 3, 4);
  const Ipv4Addr dst = Ipv4Addr::from_octets(5, 6, 7, 8);
  TcpHeader t;
  t.src_port = 43210;
  t.dst_port = 443;
  t.seq = 0xdeadbeef;
  t.flags = TcpFlags::kSyn;

  std::vector<std::uint8_t> wire;
  t.serialize(wire, src, dst);
  ASSERT_EQ(wire.size(), TcpHeader::kMinSize);

  auto parsed = TcpHeader::parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().src_port, 43210);
  EXPECT_EQ(parsed.value().dst_port, 443);
  EXPECT_EQ(parsed.value().seq, 0xdeadbeefu);
  EXPECT_EQ(parsed.value().flags, TcpFlags::kSyn);

  // Verify the transport checksum over pseudo-header + segment.
  ChecksumAccumulator acc;
  acc.update_word(static_cast<std::uint16_t>(src.value() >> 16));
  acc.update_word(static_cast<std::uint16_t>(src.value() & 0xffff));
  acc.update_word(static_cast<std::uint16_t>(dst.value() >> 16));
  acc.update_word(static_cast<std::uint16_t>(dst.value() & 0xffff));
  acc.update_word(6);  // TCP
  acc.update_word(static_cast<std::uint16_t>(wire.size()));
  acc.update(wire);
  EXPECT_EQ(acc.finish(), 0);
}

TEST(UdpHeader, RoundTripAndLength) {
  const Ipv4Addr src = Ipv4Addr::from_octets(9, 9, 9, 9);
  const Ipv4Addr dst = Ipv4Addr::from_octets(8, 8, 8, 8);
  UdpHeader u;
  u.src_port = 5353;
  u.dst_port = 53;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};

  std::vector<std::uint8_t> wire;
  u.serialize(wire, src, dst, payload);
  ASSERT_EQ(wire.size(), UdpHeader::kSize + payload.size());

  auto parsed = UdpHeader::parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().length, wire.size());
  EXPECT_NE(parsed.value().checksum, 0);  // RFC 768 zero-means-absent
}

TEST(IcmpHeader, RoundTrip) {
  IcmpHeader i;
  i.type = 8;
  i.code = 0;
  i.rest = 0x00010002;
  std::vector<std::uint8_t> wire;
  i.serialize(wire);
  auto parsed = IcmpHeader::parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().type, 8);
  EXPECT_EQ(parsed.value().rest, 0x00010002u);
  EXPECT_EQ(internet_checksum(wire), 0);
}

struct SynthCase {
  IpProto proto;
  std::uint16_t requested_length;
};

// Names each case after its fields (not its bytes, which include padding),
// so test names are the same in every build.
void PrintTo(const SynthCase& c, std::ostream* os) {
  *os << "proto " << static_cast<int>(c.proto) << " length " << c.requested_length;
}

class SynthesizePacket : public ::testing::TestWithParam<SynthCase> {};

TEST_P(SynthesizePacket, ParsesBackAndHonoursLength) {
  const SynthCase& c = GetParam();
  const auto wire = synthesize_packet(Ipv4Addr::from_octets(10, 0, 0, 1),
                                      Ipv4Addr::from_octets(10, 0, 0, 2), c.proto, 1234, 80,
                                      TcpFlags::kSyn, c.requested_length);
  auto parsed = parse_packet(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().ip.protocol, c.proto);
  EXPECT_EQ(parsed.value().ip.total_length, wire.size());
  EXPECT_GE(wire.size(), c.requested_length);  // padded up to minimum if needed
  if (c.proto != IpProto::kIcmp) {
    EXPECT_EQ(parsed.value().src_port, 1234);
    EXPECT_EQ(parsed.value().dst_port, 80);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SynthesizePacket,
                         ::testing::Values(SynthCase{IpProto::kTcp, 40},
                                           SynthCase{IpProto::kTcp, 48},
                                           SynthCase{IpProto::kTcp, 56},
                                           SynthCase{IpProto::kTcp, 1500},
                                           SynthCase{IpProto::kTcp, 0},  // clamped to min
                                           SynthCase{IpProto::kUdp, 28},
                                           SynthCase{IpProto::kUdp, 300},
                                           SynthCase{IpProto::kIcmp, 28}));

TEST(SynthesizePacket, Exact40ByteSynIsMinimal) {
  const auto wire = synthesize_packet(Ipv4Addr(1), Ipv4Addr(2), IpProto::kTcp, 1, 23,
                                      TcpFlags::kSyn, 40);
  EXPECT_EQ(wire.size(), 40u);  // 20 IP + 20 TCP, no options
  auto parsed = parse_packet(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().tcp_flags, TcpFlags::kSyn);
}

TEST(SynthesizePacket, FortyEightByteSynUsesOptions) {
  const auto wire = synthesize_packet(Ipv4Addr(1), Ipv4Addr(2), IpProto::kTcp, 1, 23,
                                      TcpFlags::kSyn, 48);
  EXPECT_EQ(wire.size(), 48u);
  auto tcp = TcpHeader::parse(std::span<const std::uint8_t>(wire).subspan(20));
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp.value().data_offset, 7);  // 28-byte TCP header
}

TEST(ParsePacket, RejectsUnknownTransport) {
  Ipv4Header h;
  h.total_length = 28;
  h.protocol = static_cast<IpProto>(132);  // SCTP, unsupported
  std::vector<std::uint8_t> wire;
  h.serialize(wire);
  wire.resize(28, 0);
  auto parsed = parse_packet(wire);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, "ip.protocol");
}

TEST(ParsePacket, RejectsTruncatedTransport) {
  Ipv4Header h;
  h.total_length = 30;
  h.protocol = IpProto::kTcp;
  std::vector<std::uint8_t> wire;
  h.serialize(wire);
  wire.resize(30, 0);  // only 10 bytes of "TCP"
  EXPECT_FALSE(parse_packet(wire).ok());
}

}  // namespace
}  // namespace mtscope::net
