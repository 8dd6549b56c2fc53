#include "telemetry/block_stats.hpp"

#include <cmath>

namespace mtscope::telemetry {

void DetailedBlockStats::add_flow(const flow::FlowRecord& record) {
  counters_.rx_packets += record.packets;
  counters_.rx_bytes += record.bytes;
  if (record.key.proto == net::IpProto::kTcp) {
    counters_.rx_tcp_packets += record.packets;
    counters_.rx_tcp_bytes += record.bytes;
    // Flow records carry aggregate bytes; attribute the flow's mean size to
    // each of its packets.  Synthetic flows are constant-size, so this is
    // exact for our data and a standard approximation for real IPFIX.
    if (record.packets > 0) {
      const auto size = static_cast<std::uint32_t>(
          std::llround(static_cast<double>(record.bytes) / static_cast<double>(record.packets)));
      sizes_.add(size, record.packets);
    }
  } else if (record.key.proto == net::IpProto::kUdp) {
    counters_.rx_udp_packets += record.packets;
  }
}

}  // namespace mtscope::telemetry
