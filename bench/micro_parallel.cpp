// One-worker vs sharded-parallel collect+infer throughput on a simulated
// multi-IXP week (the paper's deployment shape: 14 vantage points x 7
// days).  Verifies bit-identical output while timing, prints a comparison
// table with the per-stage split (sim / parse / insert / merge from
// pipeline::CollectProfile), and writes BENCH_parallel.json so later PRs
// can track the speedup trajectory and a regression localizes to a stage
// instead of one collect lump.
//
// The "serial" reference row is collect_stats with default options: the
// batched engine on one worker and one shard, inline, with the one-thread
// funnel.  Thread grid over 16 shards: 1 (sharding alone, no pool in the
// picture), then 2 and 4.  Counts beyond the host's core budget only measure scheduler
// thrash, so the old 8-thread row is gone; the recorded meta block says
// how many cores the numbers were taken on and cmake/parallel_gate.cmake
// only enforces a speedup floor when that context supports one.
//
// Every configuration is timed best-of-N: the container's CPU budget
// jitters by ~10% run to run, and the minimum is the standard estimator
// for "what the code costs" under external interference.
//
// MTSCOPE_BENCH_SCALE=small shrinks the workload (2 days) for quick
// iteration, matching the convention of the other bench binaries.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "pipeline/collector.hpp"
#include "pipeline/inference.hpp"
#include "pipeline/parallel.hpp"
#include "routing/special_purpose.hpp"
#include "sim/simulation.hpp"

using namespace mtscope;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Measurement {
  unsigned threads = 1;
  unsigned shards = 1;
  double collect_ms = 0.0;
  double infer_ms = 0.0;
  pipeline::CollectProfile stages;  // from the best (kept) repetition

  [[nodiscard]] double total_ms() const { return collect_ms + infer_ms; }
};

bool identical(const pipeline::InferenceResult& a, const pipeline::InferenceResult& b) {
  return a.funnel == b.funnel && a.unclean == b.unclean && a.gray == b.gray &&
         a.dark == b.dark;
}

void print_row(const char* label, const Measurement& m, double serial_total_ms,
               bool show_speedup, const char* verdict) {
  std::printf(
      "  %-19s collect %8.1f ms  [sim %6.1f parse %5.1f insert %6.1f merge %5.1f]"
      "  infer %6.1f ms",
      label, m.collect_ms, m.stages.sim_ms, m.stages.parse_ms, m.stages.insert_ms,
      m.stages.merge_ms, m.infer_ms);
  if (show_speedup) std::printf("  speedup %5.2fx", serial_total_ms / m.total_ms());
  std::printf("  %s\n", verdict);
}

}  // namespace

int main() {
  // The paper's deployment shape at test-universe scale: the full 14-IXP
  // fleet over one week of the tiny universe.
  sim::SimConfig config = sim::SimConfig::tiny(42);
  config.ixps = sim::SimConfig::default_ixps();
  const char* scale = std::getenv("MTSCOPE_BENCH_SCALE");
  const bool small = scale != nullptr && std::strcmp(scale, "small") == 0;
  const int day_count = small ? 2 : 7;
  // Best-of-N beats the shared-container timing noise (±10% run to run);
  // the small CI scale affords more reps than the full 7-day universe.
  const int reps = small ? 5 : 3;

  const sim::Simulation simulation(config);
  const auto ixps = pipeline::all_ixps(simulation);
  std::vector<int> days;
  for (int d = 0; d < day_count; ++d) days.push_back(d);

  const auto registry = routing::SpecialPurposeRegistry::standard();
  pipeline::PipelineConfig pipeline_config;
  pipeline_config.volume_scale = simulation.config().volume_scale;
  const pipeline::InferenceEngine engine(pipeline_config, simulation.plan().rib(),
                                         registry);

  std::printf(
      "== micro_parallel: %zu IXPs x %d days, serial vs sharded parallel "
      "(best of %d) ==\n",
      ixps.size(), day_count, reps);

  // Serial reference: collect_stats with default options (one batched
  // worker, one shard) and the one-thread funnel.
  Measurement serial;
  pipeline::VantageStats serial_stats;
  pipeline::InferenceResult serial_result;
  for (int rep = 0; rep < reps; ++rep) {
    double t0 = now_ms();
    auto stats = pipeline::collect_stats(simulation, ixps, days);
    const double collect_ms = now_ms() - t0;
    t0 = now_ms();
    auto result = engine.infer(stats);
    const double infer_ms = now_ms() - t0;
    if (rep == 0 || collect_ms + infer_ms < serial.total_ms()) {
      serial.collect_ms = collect_ms;
      serial.infer_ms = infer_ms;
    }
    serial_stats = std::move(stats);
    serial_result = std::move(result);
  }
  std::printf("  %-19s collect %8.1f ms  infer %6.1f ms  (dark=%llu blocks=%zu)\n",
              "serial", serial.collect_ms, serial.infer_ms,
              static_cast<unsigned long long>(serial_result.dark.size()),
              serial_stats.blocks().size());

  std::vector<Measurement> parallel;
  bool all_identical = true;
  for (const unsigned threads : {1u, 2u, 4u}) {
    Measurement m;
    m.threads = threads;
    m.shards = 16;
    bool ok = true;
    for (int rep = 0; rep < reps; ++rep) {
      pipeline::CollectProfile profile;
      const pipeline::CollectOptions options{m.threads, m.shards, nullptr, 0, &profile};
      double t0 = now_ms();
      const auto stats = pipeline::collect_stats(simulation, ixps, days, options);
      const double collect_ms = now_ms() - t0;
      t0 = now_ms();
      const auto result = pipeline::parallel_infer(engine, stats, threads);
      const double infer_ms = now_ms() - t0;
      ok &= identical(result, serial_result) &&
            stats.blocks().size() == serial_stats.blocks().size();
      if (rep == 0 || collect_ms + infer_ms < m.total_ms()) {
        m.collect_ms = collect_ms;
        m.infer_ms = infer_ms;
        m.stages = profile;
      }
    }
    all_identical &= ok;
    char label[64];
    std::snprintf(label, sizeof(label), "%u thread%s/%u shards", m.threads,
                  m.threads == 1 ? " " : "s", m.shards);
    print_row(label, m, serial.total_ms(), true, ok ? "bit-identical" : "MISMATCH");
    parallel.push_back(m);
  }

  // One more instrumented run: same workload with a metrics registry
  // attached, still bit-identical, and its snapshot rides along in the
  // JSON so the report carries funnel counts and stage timings.
  obs::MetricsRegistry metrics;
  const pipeline::CollectOptions instrumented_options{4, 16, &metrics};
  double t0 = now_ms();
  const auto instrumented_stats =
      pipeline::collect_stats(simulation, ixps, days, instrumented_options);
  const auto instrumented_result =
      pipeline::parallel_infer(engine, instrumented_stats, 4, &metrics);
  const double instrumented_ms = now_ms() - t0;
  const bool instrumented_ok = identical(instrumented_result, serial_result);
  all_identical &= instrumented_ok;
  std::printf("  instrumented 4/16   collect+infer %9.1f ms  %s\n", instrumented_ms,
              instrumented_ok ? "bit-identical" : "MISMATCH");

  std::ofstream json("BENCH_parallel.json");
  json << "{\n"
       << "  \"meta\": ";
  benchx::write_meta_json(json);
  json << ",\n"
       << "  \"workload\": {\"ixps\": " << ixps.size() << ", \"days\": " << day_count
       << ", \"blocks\": " << serial_stats.blocks().size()
       << ", \"flows\": " << serial_stats.flows_ingested() << "},\n"
       << "  \"store\": {\"memory_bytes\": " << serial_stats.blocks().memory_bytes()
       << ", \"load_factor\": " << serial_stats.blocks().load_factor()
       << ", \"arena_spills\": " << serial_stats.blocks().arena_spills() << "},\n"
       << "  \"serial\": {\"collect_ms\": " << serial.collect_ms
       << ", \"infer_ms\": " << serial.infer_ms << "},\n"
       << "  \"parallel\": [\n";
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    const Measurement& m = parallel[i];
    json << "    {\"threads\": " << m.threads << ", \"shards\": " << m.shards
         << ", \"collect_ms\": " << m.collect_ms << ", \"infer_ms\": " << m.infer_ms
         << ", \"speedup\": " << serial.total_ms() / m.total_ms()
         << ",\n     \"stages\": {\"sim_ms\": " << m.stages.sim_ms
         << ", \"parse_ms\": " << m.stages.parse_ms
         << ", \"insert_ms\": " << m.stages.insert_ms
         << ", \"merge_ms\": " << m.stages.merge_ms << "}}"
         << (i + 1 < parallel.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"metrics\": ";
  metrics.write_json(json, 2);
  json << ",\n"
       << "  \"bit_identical\": " << (all_identical ? "true" : "false") << "\n"
       << "}\n";
  std::printf("  wrote BENCH_parallel.json\n");

  return all_identical ? 0 : 1;
}
