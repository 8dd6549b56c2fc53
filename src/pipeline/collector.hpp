// Convenience glue: run simulated IXP-days through the export path and
// accumulate the decoded flows into VantageStats — the "collector" role of
// a meta-telescope deployment.  There is one ingest path: this entry point,
// ParallelCollector and VantageStats::add_flows all insert through
// VantageStats::add_batch.
#pragma once

#include <span>

#include "obs/metrics.hpp"
#include "pipeline/parallel.hpp"
#include "pipeline/vantage_stats.hpp"
#include "sim/simulation.hpp"

namespace mtscope::pipeline {

/// Collect merged stats over a set of vantage points and days through the
/// staged batched engine (pipeline/parallel.hpp).  Applies the plan's
/// universe mask to bound source-side memory.  The default options run
/// one batched worker over one shard inline on the calling thread; every
/// thread, shard and batch count yields the same stats.  With
/// options.metrics attached, records per-dataset ingest health (flow
/// counts, parse drops, per-vantage totals, ingest duration).
[[nodiscard]] VantageStats collect_stats(const sim::Simulation& simulation,
                                         std::span<const std::size_t> ixp_indices,
                                         std::span<const int> days,
                                         const CollectOptions& options = {});

/// Per-dataset ingest accounting each collector worker records:
/// `collect.datasets` / `collect.flows` / `collect.parse_drops` totals
/// plus `collect.vantage.<CODE>.{datasets,flows}`.  Totals depend
/// only on the datasets ingested, never on how they were partitioned —
/// the invariant the metrics tests pin.
void record_dataset_metrics(obs::MetricsRegistry& metrics, const sim::Simulation& simulation,
                            std::size_t ixp_index, const sim::IxpDayData& data);

/// Layout diagnostics of the final per-run store, recorded once
/// collection finishes: `collect.store.blocks` (rows),
/// `collect.store.bytes` (heap footprint), `collect.store.load_factor`
/// (index occupancy, percent), and `collect.store.arena_spills` (per-IP
/// runs that outgrew the inline buffer).  Gauges, because they describe the state of one store, not a
/// running total.
void record_store_metrics(obs::MetricsRegistry& metrics, const VantageStats& stats);

/// All vantage points of the simulation.
[[nodiscard]] std::vector<std::size_t> all_ixps(const sim::Simulation& simulation);

}  // namespace mtscope::pipeline
