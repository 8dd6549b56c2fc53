// The ingest referee: an independent, per-record fold of flow records into
// per-/24 state, kept under tests/ so it shares no code with the ingest
// path it checks.
//
// Production ingest has one path — FlowBatch decode, ShardRouter route,
// VantageStats::add_batch — whether VantageStats::add_flows runs it on one
// store or ParallelCollector runs it across threads and shards.  The
// differential grids compare that path against this file: a std::map from
// block id to BlockObservation, updated one FlowRecord at a time with the
// universe mask applied on the source side, plus the day set and the flow
// count.  Every per-block quantity is a sum, an OR or a set union, so any
// correct ingest order must reproduce it exactly.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "flow/record.hpp"
#include "net/ipv4.hpp"
#include "pipeline/vantage_stats.hpp"
#include "sim/simulation.hpp"
#include "trie/block24_set.hpp"

namespace mtscope::referee {

/// All measurement state for one /24, as a standalone value.
struct BlockObservation {
  std::vector<pipeline::IpRxStats> rx_ips;  // kept sorted by host (see rx_ip)
  std::uint64_t rx_packets = 0;             // sampled
  std::uint64_t rx_tcp_packets = 0;
  std::uint64_t rx_tcp_bytes = 0;
  std::uint64_t rx_est_packets = 0;  // sampled x sampling_rate (volume estimate)
  std::uint64_t tx_packets = 0;      // sampled
  std::uint64_t tx_host_bits[4] = {0, 0, 0, 0};  // which host bytes sent

  [[nodiscard]] bool host_sent(std::uint8_t host) const noexcept {
    return (tx_host_bits[host >> 6] >> (host & 63)) & 1;
  }

  void mark_host_sent(std::uint8_t host) noexcept {
    tx_host_bits[host >> 6] |= std::uint64_t{1} << (host & 63);
  }

  [[nodiscard]] double avg_tcp_size() const noexcept {
    return rx_tcp_packets == 0 ? 0.0
                               : static_cast<double>(rx_tcp_bytes) /
                                     static_cast<double>(rx_tcp_packets);
  }

  /// The host's record, inserted in host order on first use.
  pipeline::IpRxStats& rx_ip(std::uint8_t host) {
    const auto it = std::lower_bound(
        rx_ips.begin(), rx_ips.end(), host,
        [](const pipeline::IpRxStats& ip, std::uint8_t h) { return ip.host < h; });
    if (it != rx_ips.end() && it->host == host) return *it;
    return *rx_ips.insert(it, pipeline::IpRxStats{host, 0, 0, 0});
  }

  /// Linear two-run union over the sorted rx_ips.
  void merge(const BlockObservation& other) {
    std::vector<pipeline::IpRxStats> merged;
    merged.reserve(rx_ips.size() + other.rx_ips.size());
    auto mine = rx_ips.begin();
    auto theirs = other.rx_ips.begin();
    while (mine != rx_ips.end() && theirs != other.rx_ips.end()) {
      if (mine->host < theirs->host) {
        merged.push_back(*mine++);
      } else if (mine->host > theirs->host) {
        merged.push_back(*theirs++);
      } else {
        pipeline::IpRxStats combined = *mine++;
        combined.packets += theirs->packets;
        combined.tcp_packets += theirs->tcp_packets;
        combined.tcp_bytes += theirs->tcp_bytes;
        ++theirs;
        merged.push_back(combined);
      }
    }
    merged.insert(merged.end(), mine, rx_ips.end());
    merged.insert(merged.end(), theirs, other.rx_ips.end());
    rx_ips = std::move(merged);

    rx_packets += other.rx_packets;
    rx_tcp_packets += other.rx_tcp_packets;
    rx_tcp_bytes += other.rx_tcp_bytes;
    rx_est_packets += other.rx_est_packets;
    tx_packets += other.tx_packets;
    for (int w = 0; w < 4; ++w) tx_host_bits[w] |= other.tx_host_bits[w];
  }
};

/// The referee's whole state: what a VantageStats must equal.
struct ReferenceStats {
  std::map<std::uint32_t, BlockObservation> blocks;  // by Block24::index()
  std::set<int> days;
  std::uint64_t flows = 0;

  /// Fold one dataset in, one record at a time.  Source-side accounting is
  /// kept only for blocks in `source_mask` (all blocks when nullptr).
  void add_flows(std::span<const flow::FlowRecord> records, std::uint32_t sampling_rate,
                 int day, const trie::Block24Set* source_mask = nullptr) {
    days.insert(day);
    for (const flow::FlowRecord& r : records) {
      ++flows;
      BlockObservation& dst = blocks[net::Block24::containing(r.key.dst).index()];
      dst.rx_packets += r.packets;
      dst.rx_est_packets += r.packets * sampling_rate;
      pipeline::IpRxStats& ip = dst.rx_ip(static_cast<std::uint8_t>(r.key.dst.value() & 0xff));
      ip.packets += static_cast<std::uint32_t>(r.packets);
      if (r.key.proto == net::IpProto::kTcp) {
        dst.rx_tcp_packets += r.packets;
        dst.rx_tcp_bytes += r.bytes;
        ip.tcp_packets += static_cast<std::uint32_t>(r.packets);
        ip.tcp_bytes += r.bytes;
      }
      const net::Block24 src = net::Block24::containing(r.key.src);
      if (source_mask == nullptr || source_mask->contains(src)) {
        BlockObservation& sender = blocks[src.index()];
        sender.tx_packets += r.packets;
        sender.mark_host_sent(static_cast<std::uint8_t>(r.key.src.value() & 0xff));
      }
    }
  }
};

/// The referee over simulated vantage-days, in collect_stats' dataset
/// order, with the plan's universe mask on the source side.
inline ReferenceStats reference_collect(const sim::Simulation& simulation,
                                        std::span<const std::size_t> ixps,
                                        std::span<const int> days) {
  ReferenceStats out;
  const auto mask = simulation.plan().universe_mask();
  for (const int day : days) {
    for (const std::size_t ixp : ixps) {
      const sim::IxpDayData data = simulation.run_ixp_day(ixp, day);
      out.add_flows(data.flows, simulation.ixps()[ixp].sampling_rate(), day, mask.get());
    }
  }
  return out;
}

/// Deep equality of `actual` with the referee: flow count, day count, and
/// every block's counters, tx host bitmap and sorted per-IP run.  Store
/// row order is the one thing ingest may legally choose, so blocks are
/// compared by key.
inline void expect_matches_reference(const pipeline::VantageStats& actual,
                                     const ReferenceStats& expected) {
  EXPECT_EQ(actual.flows_ingested(), expected.flows);
  EXPECT_EQ(actual.day_count(), static_cast<int>(expected.days.size()));
  ASSERT_EQ(actual.blocks().size(), expected.blocks.size());
  for (const auto& [index, want] : expected.blocks) {
    const pipeline::BlockStatsStore::ConstRow row = actual.find(net::Block24(index));
    ASSERT_TRUE(row) << "missing block " << index;
    EXPECT_EQ(row.rx_packets(), want.rx_packets) << index;
    EXPECT_EQ(row.rx_tcp_packets(), want.rx_tcp_packets) << index;
    EXPECT_EQ(row.rx_tcp_bytes(), want.rx_tcp_bytes) << index;
    EXPECT_EQ(row.rx_est_packets(), want.rx_est_packets) << index;
    EXPECT_EQ(row.tx_packets(), want.tx_packets) << index;
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(row.tx_host_bits()[w], want.tx_host_bits[w]) << index;
    }
    const auto ips = row.ips();
    ASSERT_EQ(ips.size(), want.rx_ips.size()) << index;
    for (std::size_t i = 0; i < ips.size(); ++i) {
      EXPECT_EQ(ips[i].host, want.rx_ips[i].host) << index;
      EXPECT_EQ(ips[i].packets, want.rx_ips[i].packets) << index;
      EXPECT_EQ(ips[i].tcp_packets, want.rx_ips[i].tcp_packets) << index;
      EXPECT_EQ(ips[i].tcp_bytes, want.rx_ips[i].tcp_bytes) << index;
    }
  }
}

}  // namespace mtscope::referee
