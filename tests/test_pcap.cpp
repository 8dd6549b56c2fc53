#include "net/pcap.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "net/headers.hpp"

namespace mtscope::net {
namespace {

TEST(Pcap, RoundTrip) {
  std::stringstream buffer;
  PcapWriter writer(buffer);
  const auto pkt1 = synthesize_packet(Ipv4Addr(1), Ipv4Addr(2), IpProto::kTcp, 10, 80,
                                      TcpFlags::kSyn, 40);
  const auto pkt2 = synthesize_packet(Ipv4Addr(3), Ipv4Addr(4), IpProto::kUdp, 53, 53, 0, 120);
  writer.write(1'000'001, pkt1);
  writer.write(2'500'000'123'456ull, pkt2);
  EXPECT_EQ(writer.packets_written(), 2u);

  auto read = read_pcap(buffer);
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  ASSERT_EQ(read.value().size(), 2u);
  EXPECT_EQ(read.value()[0].timestamp_us, 1'000'001u);
  EXPECT_EQ(read.value()[0].data, pkt1);
  EXPECT_EQ(read.value()[1].timestamp_us, 2'500'000'123'456ull);
  EXPECT_EQ(read.value()[1].data, pkt2);

  // The payload must still be a parseable packet.
  EXPECT_TRUE(parse_packet(read.value()[1].data).ok());
}

TEST(Pcap, EmptyCapture) {
  std::stringstream buffer;
  PcapWriter writer(buffer);
  auto read = read_pcap(buffer);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().empty());
}

TEST(Pcap, SnaplenTruncates) {
  std::stringstream buffer;
  PcapWriter writer(buffer, /*snaplen=*/16);
  const std::vector<std::uint8_t> big(100, 0xaa);
  writer.write(0, big);
  auto read = read_pcap(buffer);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), 1u);
  EXPECT_EQ(read.value()[0].data.size(), 16u);
}

TEST(Pcap, RejectsBadMagic) {
  std::stringstream buffer("\x01\x02\x03\x04more garbage here padding");
  auto read = read_pcap(buffer);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().code, "pcap.magic");
}

TEST(Pcap, RejectsTruncatedBody) {
  std::stringstream buffer;
  PcapWriter writer(buffer);
  writer.write(0, std::vector<std::uint8_t>(40, 1));
  std::string data = buffer.str();
  data.resize(data.size() - 10);  // cut the last packet short
  std::stringstream cut(data);
  auto read = read_pcap(cut);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().code, "pcap.truncated");
}

TEST(Pcap, RejectsRecordLongerThanAnIpv4Packet) {
  // snaplen and incl_len both 0xFFFFFFF0: the length must be refused before
  // it sizes a ~4 GiB buffer, even though it is within the file's snaplen.
  std::stringstream buffer;
  PcapWriter writer(buffer, /*snaplen=*/0xFFFFFFF0u);
  writer.write(0, std::vector<std::uint8_t>(40, 1));
  std::string data = buffer.str();
  constexpr std::size_t kInclLenAt = 24 + 8;  // global header, then sec + usec
  data.replace(kInclLenAt, 4, "\xf0\xff\xff\xff", 4);
  std::stringstream hostile(data);
  auto read = read_pcap(hostile);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().code, "pcap.record");
}

TEST(Pcap, RejectsEmptyStream) {
  std::stringstream buffer;
  EXPECT_FALSE(read_pcap(buffer).ok());
}

}  // namespace
}  // namespace mtscope::net
