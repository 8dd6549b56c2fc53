// Per-/24 traffic accumulators for the labelled ISP dataset that tunes
// the classifier (Table 3).  The IXP pipeline keeps its per-/24 state in
// pipeline::BlockStatsStore instead.
//
//  * BlockCounters: compact inbound/outbound counters for one /24.
//  * DetailedBlockStats: adds an exact packet-size histogram, because
//    Table 3 needs medians.
#pragma once

#include <cstdint>

#include "flow/record.hpp"
#include "telemetry/histogram.hpp"

namespace mtscope::telemetry {

struct BlockCounters {
  std::uint64_t rx_packets = 0;       // sampled packets destined to the block
  std::uint64_t rx_bytes = 0;
  std::uint64_t rx_tcp_packets = 0;
  std::uint64_t rx_tcp_bytes = 0;
  std::uint64_t rx_udp_packets = 0;
  std::uint64_t tx_packets = 0;       // sampled packets sourced from the block

  /// Average IP packet size of inbound TCP traffic (0 when none).
  [[nodiscard]] double avg_tcp_packet_size() const noexcept {
    return rx_tcp_packets == 0
               ? 0.0
               : static_cast<double>(rx_tcp_bytes) / static_cast<double>(rx_tcp_packets);
  }
};

/// Per-/24 statistics with an exact inbound-TCP packet-size histogram.
class DetailedBlockStats {
 public:
  DetailedBlockStats() : sizes_(make_packet_size_histogram()) {}

  void add_flow(const flow::FlowRecord& record);

  [[nodiscard]] const BlockCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const Histogram& tcp_sizes() const noexcept { return sizes_; }

  /// Median inbound TCP IP packet size; 0 when no TCP traffic.
  [[nodiscard]] double median_tcp_packet_size() const {
    return sizes_.empty() ? 0.0 : static_cast<double>(sizes_.median());
  }

  [[nodiscard]] double avg_tcp_packet_size() const noexcept {
    return counters_.avg_tcp_packet_size();
  }

 private:
  BlockCounters counters_;
  Histogram sizes_;
};

}  // namespace mtscope::telemetry
