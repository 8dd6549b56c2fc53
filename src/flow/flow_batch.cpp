#include "flow/flow_batch.hpp"

namespace mtscope::flow {

void FlowBatch::clear() noexcept {
  dst_block_.clear();
  dst_host_.clear();
  src_block_.clear();
  src_host_.clear();
  packets_.clear();
  est_packets_.clear();
  bytes_.clear();
  tcp_.clear();
  dst_port_.clear();
}

void FlowBatch::decode(std::span<const FlowRecord> records, std::uint32_t sampling_rate) {
  clear();
  const std::size_t n = records.size();
  dst_block_.reserve(n);
  dst_host_.reserve(n);
  src_block_.reserve(n);
  src_host_.reserve(n);
  packets_.reserve(n);
  est_packets_.reserve(n);
  bytes_.reserve(n);
  tcp_.reserve(n);
  dst_port_.reserve(n);

  for (const FlowRecord& r : records) {
    // Block id = address >> 8, host = low octet, volume estimate =
    // sampled packets x exporter sampling rate.
    dst_block_.push_back(net::Block24::containing(r.key.dst).index());
    dst_host_.push_back(static_cast<std::uint8_t>(r.key.dst.value() & 0xff));
    src_block_.push_back(net::Block24::containing(r.key.src).index());
    src_host_.push_back(static_cast<std::uint8_t>(r.key.src.value() & 0xff));
    packets_.push_back(r.packets);
    est_packets_.push_back(r.packets * sampling_rate);
    bytes_.push_back(r.bytes);
    tcp_.push_back(r.key.proto == net::IpProto::kTcp ? 1 : 0);
    dst_port_.push_back(r.key.dst_port);
  }
}

}  // namespace mtscope::flow
