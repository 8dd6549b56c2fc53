// Micro-benchmarks for the inference pipeline itself: stats ingestion
// (VantageStats::add_flows, the batched ingest step on one store), the
// per-block classification pass, and stats merge over the columnar
// BlockStatsStore.  main() times ingest and merge and writes
// BENCH_store.json with their times and the store's bytes-per-block and
// layout diagnostics, then runs the google-benchmark suite.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "pipeline/inference.hpp"
#include "routing/special_purpose.hpp"
#include "util/rng.hpp"

using namespace mtscope;

namespace {

std::vector<flow::FlowRecord> make_flows(std::size_t count, std::uint64_t seed = 23) {
  util::Rng rng(seed);
  std::vector<flow::FlowRecord> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    flow::FlowRecord r;
    r.key.src = net::Ipv4Addr(0x0a000000 + static_cast<std::uint32_t>(rng.uniform(1u << 16)));
    // Destinations spread over a /6 (~262k candidate /24s), matching the
    // paper's regime: a large gray population where most blocks see only a
    // handful of sampled addresses.
    r.key.dst = net::Ipv4Addr((60u << 24) + static_cast<std::uint32_t>(rng.uniform(1u << 26)));
    r.key.dst_port = 23;
    r.key.proto = rng.chance(0.9) ? net::IpProto::kTcp : net::IpProto::kUdp;
    r.packets = 1 + rng.uniform(3);
    r.bytes = r.packets * (rng.chance(0.8) ? 40 : 1400);
    r.sampling_rate = 100;
    out.push_back(r);
  }
  return out;
}

// --- google-benchmark suite ------------------------------------------------

void BM_StatsAddFlows(benchmark::State& state) {
  const auto flows = make_flows(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    pipeline::VantageStats stats;
    stats.add_flows(flows, 100, 0);
    benchmark::DoNotOptimize(stats.blocks().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StatsAddFlows)->Arg(10'000)->Arg(500'000);

void BM_InferenceClassify(benchmark::State& state) {
  const auto flows = make_flows(static_cast<std::size_t>(state.range(0)));
  pipeline::VantageStats stats;
  stats.add_flows(flows, 100, 0);

  routing::Rib rib;
  rib.announce(*net::Prefix::parse("60.0.0.0/6"), net::AsNumber(1));
  const auto registry = routing::SpecialPurposeRegistry::standard();
  pipeline::PipelineConfig config;
  const pipeline::InferenceEngine engine(config, rib, registry);

  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.infer(stats));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stats.blocks().size()));
}
BENCHMARK(BM_InferenceClassify)->Arg(10'000)->Arg(500'000);

// Same workload with a metrics registry attached — the delta against
// BM_InferenceClassify is the cost of the instrumented funnel (per-stage
// clock reads + counter recording).  The uninstrumented path above is the
// one the <2% overhead budget applies to.
void BM_InferenceClassifyInstrumented(benchmark::State& state) {
  const auto flows = make_flows(static_cast<std::size_t>(state.range(0)));
  pipeline::VantageStats stats;
  stats.add_flows(flows, 100, 0);

  routing::Rib rib;
  rib.announce(*net::Prefix::parse("60.0.0.0/6"), net::AsNumber(1));
  const auto registry = routing::SpecialPurposeRegistry::standard();
  pipeline::PipelineConfig config;
  const pipeline::InferenceEngine engine(config, rib, registry);

  for (auto _ : state) {
    obs::MetricsRegistry metrics;
    benchmark::DoNotOptimize(engine.infer(stats, &metrics));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stats.blocks().size()));
}
BENCHMARK(BM_InferenceClassifyInstrumented)->Arg(10'000)->Arg(500'000);

void BM_StatsMerge(benchmark::State& state) {
  const auto flows_a = make_flows(100'000);
  const auto flows_b = make_flows(100'000, 29);
  pipeline::VantageStats a;
  a.add_flows(flows_a, 100, 0);
  pipeline::VantageStats b;
  b.add_flows(flows_b, 100, 1);
  for (auto _ : state) {
    pipeline::VantageStats merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged.day_count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatsMerge);

// --- BENCH_store.json -------------------------------------------------------

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename F>
double best_of_ms(int reps, F&& run) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_ms();
    run();
    best = std::min(best, now_ms() - t0);
  }
  return best;
}

void write_store_report() {
  constexpr std::size_t kFlows = 500'000;
  const auto flows = make_flows(kFlows);
  const auto flows_b = make_flows(kFlows / 5, 29);

  const double ingest_ms = best_of_ms(3, [&] {
    pipeline::VantageStats stats;
    stats.add_flows(flows, 100, 0);
    benchmark::DoNotOptimize(stats.blocks().size());
  });

  pipeline::VantageStats store_a;
  store_a.add_flows(flows, 100, 0);
  pipeline::VantageStats store_b;
  store_b.add_flows(flows_b, 100, 1);
  const double merge_ms = best_of_ms(3, [&] {
    pipeline::VantageStats merged = store_a;
    merged.merge(store_b);
    benchmark::DoNotOptimize(merged.blocks().size());
  });

  const pipeline::BlockStatsStore& store = store_a.blocks();
  const std::size_t blocks = store.size();
  const double bytes_per_block =
      static_cast<double>(store.memory_bytes()) / static_cast<double>(blocks);

  std::printf("== BlockStatsStore (%zu flows, %zu blocks) ==\n", kFlows, blocks);
  std::printf("  add_flows  %8.1f ms\n", ingest_ms);
  std::printf("  merge      %8.1f ms\n", merge_ms);
  std::printf("  bytes/blk  %8.1f\n", bytes_per_block);
  std::printf("  load_factor %.2f, arena_spills %llu, arena_wasted_ips %llu\n",
              store.load_factor(), static_cast<unsigned long long>(store.arena_spills()),
              static_cast<unsigned long long>(store.arena_wasted_ips()));

  std::ofstream json("BENCH_store.json");
  json << "{\n"
       << "  \"meta\": ";
  benchx::write_meta_json(json);
  json << ",\n"
       << "  \"workload\": {\"flows\": " << kFlows << ", \"blocks\": " << blocks
       << ", \"merge_other_flows\": " << flows_b.size() << "},\n"
       << "  \"store\": {\"add_flows_ms\": " << ingest_ms << ", \"merge_ms\": " << merge_ms
       << ", \"bytes_per_block\": " << bytes_per_block
       << ", \"memory_bytes\": " << store.memory_bytes()
       << ", \"load_factor\": " << store.load_factor()
       << ", \"arena_spills\": " << store.arena_spills()
       << ", \"arena_wasted_ips\": " << store.arena_wasted_ips() << "}\n"
       << "}\n";
  std::printf("  wrote BENCH_store.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  write_store_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
