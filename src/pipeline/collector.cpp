#include "pipeline/collector.hpp"

#include "pipeline/parallel.hpp"

namespace mtscope::pipeline {

void record_dataset_metrics(obs::MetricsRegistry& metrics, const sim::Simulation& simulation,
                            std::size_t ixp_index, const sim::IxpDayData& data) {
  metrics.counter("collect.datasets").add();
  metrics.counter("collect.flows").add(data.flows.size());
  metrics.counter("collect.parse_drops").add(data.ipfix_sets_skipped);
  const std::string& code = simulation.ixps()[ixp_index].spec().code;
  metrics.counter("collect.vantage." + code + ".datasets").add();
  metrics.counter("collect.vantage." + code + ".flows").add(data.flows.size());
}

void record_store_metrics(obs::MetricsRegistry& metrics, const VantageStats& stats) {
  const BlockStatsStore& store = stats.blocks();
  metrics.gauge("collect.store.blocks").max_with(static_cast<std::int64_t>(store.size()));
  metrics.gauge("collect.store.bytes")
      .max_with(static_cast<std::int64_t>(store.memory_bytes()));
  metrics.gauge("collect.store.load_factor")
      .max_with(static_cast<std::int64_t>(store.load_factor() * 100.0));
  metrics.gauge("collect.store.arena_spills")
      .max_with(static_cast<std::int64_t>(store.arena_spills()));
}

VantageStats collect_stats(const sim::Simulation& simulation,
                           std::span<const std::size_t> ixp_indices,
                           std::span<const int> days, const CollectOptions& options) {
  return ParallelCollector(simulation, options).collect(ixp_indices, days);
}

std::vector<std::size_t> all_ixps(const sim::Simulation& simulation) {
  std::vector<std::size_t> out(simulation.ixps().size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

}  // namespace mtscope::pipeline
