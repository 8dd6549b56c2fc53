#include "pipeline/vantage_stats.hpp"

#include <algorithm>

#include "pipeline/shard_router.hpp"

namespace mtscope::pipeline {

void VantageStats::note_day(int day) { days_.insert(day); }

void VantageStats::add_flows(std::span<const flow::FlowRecord> flows,
                             std::uint32_t sampling_rate, int day) {
  note_day(day);
  flow::FlowBatch batch;
  ShardRouter router;
  for (std::size_t first = 0; first < flows.size(); first += flow::FlowBatch::kDefaultRecords) {
    batch.decode(flows.subspan(first, std::min(flow::FlowBatch::kDefaultRecords,
                                               flows.size() - first)),
                 sampling_rate);
    router.route(batch, 1);
    add_batch(batch, router.rx_rows(0), router.tx_rows(0), day);
  }
}

void VantageStats::add_batch_rx(const flow::FlowBatch& batch,
                                std::span<const std::uint32_t> rows) {
  flows_ += rows.size();
  // Upper bound on new rows this run can create; reserving here means the
  // insert loop below never rehashes mid-run (batch statistics size the
  // store, per the shard-affinity design in DESIGN.md §14).
  store_.reserve_rows(store_.size() + rows.size());
  store_.add_rx_rows(rows, batch.dst_block(), batch.dst_host(), batch.packets(),
                     batch.est_packets(), batch.tcp(), batch.bytes());
}

void VantageStats::add_batch_tx(const flow::FlowBatch& batch,
                                std::span<const std::uint32_t> rows) {
  const std::span<const std::uint32_t> block = batch.src_block();
  const std::span<const std::uint8_t> host = batch.src_host();
  const std::span<const std::uint64_t> packets = batch.packets();
  const trie::Block24Set* mask = source_mask_.get();
  constexpr std::size_t kPrefetchAhead = 16;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (k + kPrefetchAhead < rows.size()) {
      store_.prefetch_block(net::Block24(block[rows[k + kPrefetchAhead]]));
    }
    const std::uint32_t i = rows[k];
    const net::Block24 src_block(block[i]);
    if (mask == nullptr || mask->contains(src_block)) {
      store_.add_tx(src_block, host[i], packets[i]);
    }
  }
}

void VantageStats::merge(const VantageStats& other) {
  store_.merge(other.store_);
  days_.insert(other.days_.begin(), other.days_.end());
  flows_ += other.flows_;
  ibr_.merge(other.ibr_);
}

VantageStats merge_stats(VantageStats first, std::span<const VantageStats* const> rest,
                         std::size_t reserve_rows) {
  if (reserve_rows > 0) first.reserve_blocks(reserve_rows);
  for (const VantageStats* part : rest) first.merge(*part);
  return first;
}

}  // namespace mtscope::pipeline
