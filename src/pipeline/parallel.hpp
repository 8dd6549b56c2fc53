// Sharded parallel collect/infer engine.
//
// The paper's deployment digests sampled IPFIX from 14 IXPs covering
// millions of /24s per day; one thread ingesting vantage-days in turn is
// the scalability wall.  This module fans the work out while keeping the
// output *bit-identical* for every thread, shard and batch count
// (tests/test_parallel_pipeline proves it against a per-record std::map
// referee kept under tests/, down to batch size 1):
//
//   collect — vantage-day datasets are dealt round-robin to N workers.
//     Each worker runs the ingestion pipeline in stages (DESIGN.md §14):
//
//       parse  — flow::FlowBatch decodes the hot record fields into flat
//                SoA columns and pipeline::ShardRouter counting-sorts the
//                batch rows by Block24 % shards, once per batch;
//       insert — each routed run lands in the worker's shard-affine
//                VantageStats through VantageStats::add_batch, the step
//                VantageStats::add_flows runs on one store (stores pre-
//                partitioned by the same Block24 % shards key the rows
//                were dealt by, pre-sized from the batch statistics), so
//                a store's index stays cache-hot for a whole run and no
//                lock is ever taken;
//       merge  — shard columns are disjoint key spaces by construction,
//                so the cross-worker reduction is one fold task per shard
//                on the same pool (no locks, no cross-shard traffic, no
//                barrier rounds), and the final cross-shard fold rides
//                pipeline::merge_stats with the exact row total — the
//                same primitive ingest::SlidingWindow publishes through.
//
//   infer — the block store is dense, so rows split into contiguous
//     ranges, the seven-step funnel runs per range, and the partial
//     results reduce (counter sums + Block24Set union).
//
// Determinism argument: every per-block quantity is a sum of unsigned
// counters, a bitwise OR of host bitmaps, or a set union (days, dark
// blocks) — all commutative and associative (property-tested in
// tests/test_pipeline_properties), so the assignment of datasets to
// workers, rows to batches and shards, and the merge-fold shape cannot
// change the result.  Nothing in the pipeline reads insertion order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/inference.hpp"
#include "pipeline/vantage_stats.hpp"
#include "sim/simulation.hpp"

namespace mtscope::pipeline {

/// Per-stage accounting of one ParallelCollector::collect() call, filled
/// when CollectOptions::profile points at one.  sim/parse/insert are
/// summed across workers — CPU time, so they can exceed wall clock on real
/// multicore hardware — while merge and total are wall clock on the
/// calling thread.  bench/micro_parallel reports these so a regression
/// localizes to a stage instead of one collect lump.
struct CollectProfile {
  double sim_ms = 0.0;     // run_ixp_day: synthesis, export, IPFIX decode
  double parse_ms = 0.0;   // FlowBatch::decode + ShardRouter::route
  double insert_ms = 0.0;  // VantageStats::add_batch into shard stores
  double merge_ms = 0.0;   // per-shard-column folds + final disjoint fold
  double total_ms = 0.0;   // wall clock of the whole collect()
};

/// Tuning knobs for the sharded parallel collector.
struct CollectOptions {
  /// Worker threads; <= 1 runs the batched engine inline on the calling
  /// thread (no pool).
  unsigned threads = 1;

  /// Shard-affine VantageStats per worker (key: block.index() % shards).
  /// More shards mean smaller, cache-warmer stores and a wider
  /// (more concurrent) merge fan-out; the output never depends on the
  /// value.
  unsigned shards = 1;

  /// Optional observability sink.  Workers never touch it directly: each
  /// writes a thread-local registry (per-worker task counts, per-dataset
  /// ingest accounting) that is merged into *metrics in worker-index
  /// order after the join, so counter totals are independent of
  /// scheduling and shard count.  nullptr keeps the engine zero-overhead.
  obs::MetricsRegistry* metrics = nullptr;

  /// Records per FlowBatch handed to the parse stage; 0 selects
  /// flow::FlowBatch::kDefaultRecords.  The output never depends on it
  /// (the batched differential grid pins sizes 1, 64 and 4096).
  unsigned batch_records = 0;

  /// Optional per-stage timing sink; nullptr skips nothing but the final
  /// stores.  See CollectProfile.
  CollectProfile* profile = nullptr;

  /// Populate the IBR analytics matrix (analytics/ibr_matrix.hpp) while
  /// collecting: every rx-routed batch row also lands one cell update in
  /// its shard's matrix, and the matrices fold through the same disjoint
  /// merge as the stores.  Never changes the classification output.
  bool analytics = false;
};

/// Fans vantage-day datasets out to a worker pool; see the file comment.
class ParallelCollector {
 public:
  ParallelCollector(const sim::Simulation& simulation, CollectOptions options);

  /// Merged stats over `ixp_indices` x `days` (what collect_stats returns).
  [[nodiscard]] VantageStats collect(std::span<const std::size_t> ixp_indices,
                                     std::span<const int> days) const;

 private:
  const sim::Simulation& simulation_;
  CollectOptions options_;
};

/// Runs the seven-step funnel over `stats.blocks()` partitioned into
/// `threads` contiguous ranges and reduces the partial results.
/// Bit-identical to engine.infer(stats); threads <= 1 falls through to it.
/// With a registry attached, workers time their ranges into thread-local
/// registries (merged in worker order) and the funnel counters are
/// recorded from the final reduced result — byte-identical to the values
/// the serial path records.
[[nodiscard]] InferenceResult parallel_infer(const InferenceEngine& engine,
                                             const VantageStats& stats, unsigned threads,
                                             obs::MetricsRegistry* metrics = nullptr);

}  // namespace mtscope::pipeline
