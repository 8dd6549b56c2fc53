#include "pipeline/vantage_stats.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <vector>

#include "reference_ingest.hpp"
#include "util/rng.hpp"

namespace mtscope::pipeline {
namespace {

using referee::BlockObservation;

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

TEST(VantageStats, PerIpAccounting) {
  VantageStats stats;
  const std::vector<flow::FlowRecord> flows = {
      record(0x01010101, 0x0a000105, net::IpProto::kTcp, 2, 80),
      record(0x01010101, 0x0a000105, net::IpProto::kTcp, 1, 48),
      record(0x01010101, 0x0a000107, net::IpProto::kUdp, 3, 300),
  };
  stats.add_flows(flows, 100, 0);

  const BlockStatsStore::ConstRow obs = stats.find(net::Block24(0x0a0001));
  ASSERT_TRUE(obs);
  EXPECT_EQ(obs.rx_packets(), 6u);
  EXPECT_EQ(obs.rx_tcp_packets(), 3u);
  EXPECT_EQ(obs.rx_tcp_bytes(), 128u);
  EXPECT_EQ(obs.rx_est_packets(), 600u);
  ASSERT_EQ(obs.ips().size(), 2u);

  // Host .5 got both TCP flows.
  bool found5 = false;
  for (const IpRxStats& ip : obs.ips()) {
    if (ip.host == 5) {
      found5 = true;
      EXPECT_EQ(ip.tcp_packets, 3u);
      EXPECT_NEAR(ip.avg_tcp_size(), 128.0 / 3.0, 1e-9);
    }
    if (ip.host == 7) {
      EXPECT_EQ(ip.tcp_packets, 0u);
      EXPECT_EQ(ip.packets, 3u);
    }
  }
  EXPECT_TRUE(found5);

  // Source side: block of 1.1.1.1 marked as sender.
  const BlockStatsStore::ConstRow src = stats.find(net::Block24(0x010101));
  ASSERT_TRUE(src);
  EXPECT_EQ(src.tx_packets(), 6u);
  EXPECT_TRUE(src.host_sent(1));
  EXPECT_FALSE(src.host_sent(2));
}

TEST(VantageStats, SourceMaskFiltersForeignSources) {
  auto mask = std::make_shared<trie::Block24Set>();
  mask->insert(net::Block24(0x0a0001));  // only the destination block
  VantageStats stats(mask);
  const std::vector<flow::FlowRecord> flows = {
      record(0x01010101, 0x0a000105, net::IpProto::kTcp, 1, 40),
  };
  stats.add_flows(flows, 1, 0);
  EXPECT_TRUE(stats.find(net::Block24(0x0a0001)));
  EXPECT_FALSE(stats.find(net::Block24(0x010101)));  // masked out
}

TEST(VantageStats, DayCounting) {
  VantageStats stats;
  EXPECT_EQ(stats.day_count(), 0);  // empty covers no days (clamping is the caller's job)
  stats.add_flows({}, 1, 3);
  stats.add_flows({}, 1, 3);
  stats.add_flows({}, 1, 5);
  EXPECT_EQ(stats.day_count(), 2);
}

TEST(VantageStats, EmptyMergeTargetClaimsNoPhantomDay) {
  // The old "empty pretends one day" semantics made an empty merge target
  // double-count: merging a 1-day shard left day_count() at 1, as if the
  // target's imaginary day and the shard's real day were the same one.
  VantageStats shard;
  shard.add_flows({}, 1, 7);
  ASSERT_EQ(shard.day_count(), 1);

  VantageStats target;
  target.merge(shard);
  EXPECT_EQ(target.day_count(), 1);  // exactly the shard's day, nothing else

  VantageStats other_day;
  other_day.add_flows({}, 1, 8);
  target.merge(other_day);
  EXPECT_EQ(target.day_count(), 2);
}

TEST(VantageStats, NoteDayMatchesAddFlowsDayAccounting) {
  VantageStats via_note;
  via_note.note_day(2);
  via_note.note_day(2);
  via_note.note_day(9);
  VantageStats via_add;
  via_add.add_flows({}, 1, 2);
  via_add.add_flows({}, 1, 9);
  EXPECT_EQ(via_note.day_count(), via_add.day_count());
}

TEST(VantageStats, AddFlowsMatchesPerRecordReferee) {
  // Several FlowBatch chunks (the last one partial), repeated blocks and
  // hosts, and a source mask that keeps half the senders: the batched
  // add_flows must equal the per-record referee field for field.
  util::Rng rng(17);
  std::vector<flow::FlowRecord> flows;
  for (std::size_t i = 0; i < 2 * flow::FlowBatch::kDefaultRecords + 123; ++i) {
    flows.push_back(record(0x0a000000u + static_cast<std::uint32_t>(rng.uniform(1u << 12)),
                           0x14000000u + static_cast<std::uint32_t>(rng.uniform(1u << 12)),
                           rng.chance(0.7) ? net::IpProto::kTcp : net::IpProto::kUdp,
                           1 + rng.uniform(4), 40 + rng.uniform(1400)));
  }
  auto mask = std::make_shared<trie::Block24Set>();
  for (std::uint32_t b = 0; b < 8; ++b) mask->insert(net::Block24(0x0a0000 + b));

  VantageStats stats(mask);
  stats.add_flows(flows, 100, 3);
  stats.add_flows(std::span(flows).first(500), 10, 4);

  referee::ReferenceStats expected;
  expected.add_flows(flows, 100, 3, mask.get());
  expected.add_flows(std::span(flows).first(500), 10, 4, mask.get());
  referee::expect_matches_reference(stats, expected);
}

TEST(VantageStats, MergeCombines) {
  VantageStats a;
  VantageStats b;
  const std::vector<flow::FlowRecord> fa = {
      record(0x01010101, 0x0a000105, net::IpProto::kTcp, 1, 40)};
  const std::vector<flow::FlowRecord> fb = {
      record(0x02020202, 0x0a000105, net::IpProto::kTcp, 2, 96),
      record(0x0a000109, 0x03030303, net::IpProto::kTcp, 1, 40)};  // block sends
  a.add_flows(fa, 10, 0);
  b.add_flows(fb, 10, 1);
  a.merge(b);

  EXPECT_EQ(a.day_count(), 2);
  EXPECT_EQ(a.flows_ingested(), 3u);
  const BlockStatsStore::ConstRow obs = a.find(net::Block24(0x0a0001));
  ASSERT_TRUE(obs);
  EXPECT_EQ(obs.rx_packets(), 3u);
  ASSERT_EQ(obs.ips().size(), 1u);  // same host .5 merged
  EXPECT_EQ(obs.ips()[0].tcp_packets, 3u);
  EXPECT_EQ(obs.tx_packets(), 1u);
  EXPECT_TRUE(obs.host_sent(9));
}

TEST(VantageStats, StoreIterationYieldsEveryBlockOnce) {
  VantageStats stats;
  const std::vector<flow::FlowRecord> flows = {
      record(0x01010101, 0x0a000105, net::IpProto::kTcp, 1, 40),
      record(0x01010101, 0x0b000205, net::IpProto::kTcp, 1, 40),
      record(0x01010101, 0x0c000305, net::IpProto::kTcp, 1, 40),
  };
  stats.add_flows(flows, 1, 0);

  std::set<std::uint32_t> seen;
  for (const BlockStatsStore::ConstRow row : stats.blocks()) {
    EXPECT_TRUE(seen.insert(row.block().index()).second);
  }
  // 3 destination blocks + the source block of 1.1.1.1.
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen.size(), stats.blocks().size());
  EXPECT_TRUE(seen.contains(0x010101u));
}

// The referee's per-block value (tests/reference_ingest.hpp).

TEST(BlockObservationStruct, HostBitmap) {
  BlockObservation obs;
  EXPECT_FALSE(obs.host_sent(0));
  obs.mark_host_sent(0);
  obs.mark_host_sent(63);
  obs.mark_host_sent(64);
  obs.mark_host_sent(255);
  EXPECT_TRUE(obs.host_sent(0));
  EXPECT_TRUE(obs.host_sent(63));
  EXPECT_TRUE(obs.host_sent(64));
  EXPECT_TRUE(obs.host_sent(255));
  EXPECT_FALSE(obs.host_sent(128));
}

TEST(BlockObservationStruct, AvgTcpSize) {
  BlockObservation obs;
  EXPECT_DOUBLE_EQ(obs.avg_tcp_size(), 0.0);
  obs.rx_tcp_packets = 4;
  obs.rx_tcp_bytes = 180;
  EXPECT_DOUBLE_EQ(obs.avg_tcp_size(), 45.0);
}

TEST(BlockObservationStruct, RxIpKeepsHostsSorted) {
  // rx_ip() maintains the sorted-by-host invariant the linear merge and
  // the run-by-run comparison with the store rely on, regardless of
  // insertion order.
  BlockObservation obs;
  for (const std::uint8_t host : {200, 5, 120, 5, 0, 255}) {
    obs.rx_ip(host).packets += 1;
  }
  ASSERT_EQ(obs.rx_ips.size(), 5u);
  for (std::size_t i = 1; i < obs.rx_ips.size(); ++i) {
    EXPECT_LT(obs.rx_ips[i - 1].host, obs.rx_ips[i].host);
  }
  EXPECT_EQ(obs.rx_ip(5).packets, 2u);  // duplicate insert accumulated
}

TEST(BlockObservationStruct, MergeIsLinearUnionOverSortedRuns) {
  BlockObservation a;
  a.rx_ip(1).packets = 10;
  a.rx_ip(200).packets = 1;
  BlockObservation b;
  b.rx_ip(1).packets = 5;
  b.rx_ip(1).tcp_packets = 5;
  b.rx_ip(7).packets = 2;
  a.merge(b);

  ASSERT_EQ(a.rx_ips.size(), 3u);
  EXPECT_EQ(a.rx_ips[0].host, 1);
  EXPECT_EQ(a.rx_ips[0].packets, 15u);
  EXPECT_EQ(a.rx_ips[0].tcp_packets, 5u);
  EXPECT_EQ(a.rx_ips[1].host, 7);
  EXPECT_EQ(a.rx_ips[2].host, 200);
}

}  // namespace
}  // namespace mtscope::pipeline
