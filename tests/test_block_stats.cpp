#include "telemetry/block_stats.hpp"

#include <gtest/gtest.h>

namespace mtscope::telemetry {
namespace {

flow::FlowRecord record(std::uint32_t src, std::uint32_t dst, net::IpProto proto,
                        std::uint64_t packets, std::uint64_t bytes) {
  flow::FlowRecord r;
  r.key.src = net::Ipv4Addr(src);
  r.key.dst = net::Ipv4Addr(dst);
  r.key.proto = proto;
  r.packets = packets;
  r.bytes = bytes;
  return r;
}

TEST(DetailedBlockStats, HistogramTracksMedianAndMean) {
  DetailedBlockStats stats;
  stats.add_flow(record(1, 2, net::IpProto::kTcp, 93, 93 * 40));
  stats.add_flow(record(1, 2, net::IpProto::kTcp, 7, 7 * 48));
  EXPECT_NEAR(stats.avg_tcp_packet_size(), 40.56, 0.01);
  EXPECT_DOUBLE_EQ(stats.median_tcp_packet_size(), 40.0);
  EXPECT_EQ(stats.tcp_sizes().total(), 100u);
}

TEST(DetailedBlockStats, FlowMeanAttributedPerPacket) {
  DetailedBlockStats stats;
  // One flow with mixed sizes: mean 44 attributed to each of 2 packets.
  stats.add_flow(record(1, 2, net::IpProto::kTcp, 2, 88));
  EXPECT_EQ(stats.tcp_sizes().count_of(44), 2u);
}

TEST(DetailedBlockStats, IgnoresUdpInHistogram) {
  DetailedBlockStats stats;
  stats.add_flow(record(1, 2, net::IpProto::kUdp, 5, 1000));
  EXPECT_TRUE(stats.tcp_sizes().empty());
  EXPECT_DOUBLE_EQ(stats.median_tcp_packet_size(), 0.0);
  EXPECT_EQ(stats.counters().rx_udp_packets, 5u);
}

}  // namespace
}  // namespace mtscope::telemetry
