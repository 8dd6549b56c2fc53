// FlowBatch: struct-of-arrays decode of the ingest-hot FlowRecord fields.
//
// Inserting FlowRecords one at a time touches each record's scattered
// fields (two addresses, proto, packets, bytes) and recomputes both /24
// block ids inside every store call.  At paper scale that per-record dance
// — field loads across a 64-byte struct, two Block24::containing calls,
// the branchy TCP test — would sit between the exporter and the store on
// every one of millions of flows per day.
//
// A FlowBatch decodes the hot fields of many records at once into flat
// parallel arrays *before* any store is touched: block ids and host octets
// are computed exactly once, the sampling-rate volume estimate is a single
// vectorizable multiply over the packets column, and the TCP predicate
// becomes a byte per record instead of an enum compare in the middle of the
// insert loop.  Downstream stages (shard routing, store insertion — see
// pipeline/shard_router.hpp and VantageStats::add_batch) then run tight
// loops over these columns with no FlowRecord in sight.  Every ingest goes
// through it: ParallelCollector's workers and VantageStats::add_flows.
//
// Decoding is pure projection: every column value is computed from one
// record alone, so the batch size cannot change what the store holds (the
// batched differential grid in tests/test_parallel_pipeline pins sizes 1,
// 64 and 4096 against a per-record referee kept under tests/).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flow/record.hpp"
#include "net/ipv4.hpp"

namespace mtscope::flow {

class FlowBatch {
 public:
  /// Records per batch when the caller does not say otherwise: large
  /// enough to amortize the per-batch routing scratch, small enough that
  /// one batch's columns (~26 B/record) stay cache-resident.
  static constexpr std::size_t kDefaultRecords = 4096;

  /// Decode `records` into the columns, replacing previous contents.  The
  /// capacity of the columns is retained across calls, so a reused batch
  /// allocates only on its first (largest) decode.
  void decode(std::span<const FlowRecord> records, std::uint32_t sampling_rate);

  void clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return dst_block_.size(); }
  [[nodiscard]] bool empty() const noexcept { return dst_block_.empty(); }

  // --- columns, one entry per decoded record ----------------------------

  /// Destination /24 block id (Block24::index()).
  [[nodiscard]] std::span<const std::uint32_t> dst_block() const noexcept {
    return dst_block_;
  }
  /// Destination host octet (last byte of the address).
  [[nodiscard]] std::span<const std::uint8_t> dst_host() const noexcept {
    return dst_host_;
  }
  /// Source /24 block id.
  [[nodiscard]] std::span<const std::uint32_t> src_block() const noexcept {
    return src_block_;
  }
  /// Source host octet.
  [[nodiscard]] std::span<const std::uint8_t> src_host() const noexcept {
    return src_host_;
  }
  /// Sampled packet count.
  [[nodiscard]] std::span<const std::uint64_t> packets() const noexcept {
    return packets_;
  }
  /// packets x sampling_rate — the volume estimate the funnel thresholds.
  [[nodiscard]] std::span<const std::uint64_t> est_packets() const noexcept {
    return est_packets_;
  }
  /// Sampled byte count (read only for TCP records downstream).
  [[nodiscard]] std::span<const std::uint64_t> bytes() const noexcept { return bytes_; }
  /// 1 when the record's protocol is TCP, else 0.
  [[nodiscard]] std::span<const std::uint8_t> tcp() const noexcept { return tcp_; }
  /// Destination port (read by the analytics matrix tap).
  [[nodiscard]] std::span<const std::uint16_t> dst_port() const noexcept {
    return dst_port_;
  }

 private:
  std::vector<std::uint32_t> dst_block_;
  std::vector<std::uint8_t> dst_host_;
  std::vector<std::uint32_t> src_block_;
  std::vector<std::uint8_t> src_host_;
  std::vector<std::uint64_t> packets_;
  std::vector<std::uint64_t> est_packets_;
  std::vector<std::uint64_t> bytes_;
  std::vector<std::uint8_t> tcp_;
  std::vector<std::uint16_t> dst_port_;
};

}  // namespace mtscope::flow
