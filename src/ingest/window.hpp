// SlidingWindow: the paper's multi-day analysis window (§6.1) maintained
// incrementally for continuous operation (DESIGN.md §13).
//
// The batch pipeline folds every vantage-day into one VantageStats and
// runs the funnel once.  A streaming deployment cannot afford that: when
// day D+1 arrives, re-collecting days D-6..D+1 from scratch repeats a
// week of ingest work to retire one day.  Instead the window retains one
// VantageStats *per day* (the per-day delta), so
//
//   admit  — route a dataset to its day's slice through
//            VantageStats::add_flows, the same batched step the batch
//            collector runs: O(dataset), touches no other day;
//   evict  — drop the slice that aged out: O(1), no subtraction, no
//            rescan (subtracting stats from a merged store is impossible
//            anyway: max-like fields such as the source bitmap and the
//            day set do not invert);
//   merged — pairwise tree-merge of the retained slices, the same
//            reduction the parallel collector uses on its shards.
//
// Bit-identicality contract: merged() equals the single VantageStats a
// from-scratch batch collect over the same vantage-days would produce.
// The argument is the parallel engine's (pipeline/parallel.hpp): every
// per-block quantity is a sum of unsigned counters, a bitwise OR, or a
// set union — commutative and associative — so partitioning by day and
// re-merging cannot change the result, regardless of arrival order or
// merge-tree shape.  tests/test_ingest_window.cpp proves it differentially
// against a per-record referee and down to the serialized snapshot bytes;
// the window laws themselves are property-tested in
// tests/test_pipeline_properties.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "flow/record.hpp"
#include "pipeline/vantage_stats.hpp"
#include "trie/block24_set.hpp"

namespace mtscope::ingest {

class SlidingWindow {
 public:
  /// A window spans `window_days` consecutive logical days.  `source_mask`
  /// is forwarded to every per-day slice (see VantageStats: it bounds
  /// source-side memory against spoofed scatter).  With `analytics` set,
  /// each slice also maintains its day's IBR analytics matrix, and
  /// merged() folds the matrices with the same commutative merge as the
  /// stores — so every published epoch's matrix is bit-identical to a
  /// from-scratch batch build over the retained days.
  explicit SlidingWindow(int window_days,
                         std::shared_ptr<const trie::Block24Set> source_mask = nullptr,
                         bool analytics = false);

  /// Ingest one dataset into its day's slice, creating the slice if this
  /// is the day's first dataset.  Days may arrive interleaved; only
  /// eviction assumes forward progress.
  void add_flows(int day, std::span<const flow::FlowRecord> flows, std::uint32_t sampling_rate);

  /// Admit a day with no datasets (an outage day still elapses: it widens
  /// the per-day volume normalisation exactly as an empty day does in a
  /// batch run that lists it).
  void note_day(int day);

  struct EvictionReport {
    int days = 0;             // slices dropped
    std::uint64_t rows = 0;   // /24 store rows released
    std::uint64_t flows = 0;  // ingested flows released
  };

  /// Slide the window forward: drop every slice older than
  /// `newest_day - window_days() + 1`.  O(1) per evicted day.
  EvictionReport advance_to(int newest_day);

  /// Drop every slice with day < `day` (advance_to's engine, exposed for
  /// the evict-then-readmit property tests).
  EvictionReport evict_before(int day);

  /// The batch-equivalent view: all retained slices tree-merged into one
  /// VantageStats.  Cost is one pass over the retained data; the slices
  /// themselves are not consumed.
  [[nodiscard]] pipeline::VantageStats merged() const;

  [[nodiscard]] int window_days() const noexcept { return window_days_; }
  [[nodiscard]] std::size_t slice_count() const noexcept { return slices_.size(); }
  [[nodiscard]] bool empty() const noexcept { return slices_.empty(); }

  /// Retained days, ascending.
  [[nodiscard]] std::vector<int> days() const;

  /// Sum of flows ingested across retained slices.
  [[nodiscard]] std::uint64_t flows_ingested() const noexcept;

 private:
  /// The slice for `day`, inserted in day order if absent.
  pipeline::VantageStats& slice_for(int day);

  int window_days_;
  std::shared_ptr<const trie::Block24Set> source_mask_;
  bool analytics_ = false;

  struct DaySlice {
    int day = 0;
    pipeline::VantageStats stats;
  };
  std::deque<DaySlice> slices_;  // ascending by day
};

}  // namespace mtscope::ingest
