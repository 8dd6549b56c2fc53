#include "deploy.hpp"

#include <algorithm>
#include <thread>

#include "ingest/daemon.hpp"
#include "pipeline/collector.hpp"
#include "pipeline/spoof_tolerance.hpp"
#include "serve/analytics_format.hpp"

namespace perfbench {

using namespace mtscope;

unsigned load_budget() { return std::max(1u, std::thread::hardware_concurrency()); }

unsigned pipeline_threads() { return std::min(4u, load_budget()); }

util::Result<ReadRate> measure_read_rate(std::uint16_t port, serve::WireProtocol proto,
                                         double share, std::uint64_t seed) {
  serve::LoadgenConfig probe;
  probe.port = port;
  probe.mode = serve::LoadMode::kClosed;
  probe.proto = proto;
  probe.connections = 1;
  probe.steps = {1};
  probe.warmup_ms = 100;
  probe.measure_ms = 300;
  probe.cooldown_ms = 0;
  probe.seed = seed;
  const auto steps = serve::run_loadgen(probe);
  if (!steps.ok()) return steps.error();
  const serve::StepResult& step = steps.value().front();
  if (step.errors != 0 || step.achieved_qps <= 0.0) {
    return util::make_error("perfbench.read_rate", "capacity probe failed");
  }
  ReadRate out;
  out.capacity_qps = step.achieved_qps;
  out.rate_qps = std::max<std::uint64_t>(100, static_cast<std::uint64_t>(share * step.achieved_qps));
  return out;
}

std::vector<int> cpu_for(int slot) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 4) return {};
  return {cpus[static_cast<std::size_t>(slot) % cpus.size()]};
}

int first_day(const Options& options) { return 7 * static_cast<int>(options.seed % 52); }

sim::SimConfig universe(const Options& options) {
  if (options.smoke) return sim::SimConfig::tiny(kUniverseSeed);
  sim::SimConfig config;
  config.seed = kUniverseSeed;
  return config;
}

void record_common_params(const Options& options, Sheet& sheet) {
  sheet.params["workload"] = options.workload;
  sheet.params["seed"] = std::to_string(options.seed);
  sheet.counters["param.universe_seed"] = static_cast<double>(kUniverseSeed);
  sheet.counters["param.first_day"] = first_day(options);
  sheet.params["seconds"] = std::to_string(options.seconds);
  sheet.params["trace"] = std::to_string(options.trace ? 1 : 0);
  sheet.params["scale"] = options.smoke ? std::string("smoke") : std::string("full");
  sheet.params["fault"] = options.fault.empty() ? "none" : options.fault;
  sheet.counters["param.read_share"] = options.read_share;
  sheet.params["commit"] = options.commit;
  sheet.params["source_digest"] = options.source_digest;
  sheet.counters["param.nproc"] = load_budget();
  sheet.counters["param.pipeline_threads"] = pipeline_threads();
  sheet.counters["param.shards"] = kShards;
}

void StoreCounts::read(const pipeline::VantageStats& stats) {
  const pipeline::BlockStatsStore& store = stats.blocks();
  flows = stats.flows_ingested();
  rows = store.size();
  memory_bytes = store.memory_bytes();
  load_factor = store.load_factor();
  arena_spills = store.arena_spills();
  arena_allocated = store.arena_allocated_ips();
  arena_wasted = store.arena_wasted_ips();
  analytics_cells = stats.ibr().rx_cell_count();
}

void StoreCounts::record(Sheet& sheet, const std::string& prefix) const {
  sheet.counters[prefix + "flows"] = static_cast<double>(flows);
  sheet.counters[prefix + "store_rows"] = static_cast<double>(rows);
  sheet.counters[prefix + "store_bytes"] = static_cast<double>(memory_bytes);
  sheet.counters[prefix + "store_load_factor"] = load_factor;
  sheet.counters[prefix + "arena_spills"] = static_cast<double>(arena_spills);
  sheet.counters[prefix + "arena_allocated_ips"] = static_cast<double>(arena_allocated);
  sheet.counters[prefix + "arena_wasted_ips"] = static_cast<double>(arena_wasted);
  sheet.counters[prefix + "analytics_cells"] = static_cast<double>(analytics_cells);
}

BuildResult build_map(const sim::Simulation& simulation, std::span<const std::size_t> ixps,
                      std::span<const int> days, unsigned threads, const MetaFn& meta) {
  static const routing::SpecialPurposeRegistry registry =
      routing::SpecialPurposeRegistry::standard();
  BuildResult out;
  const double t0 = now_ms();
  pipeline::CollectOptions options;
  options.threads = threads;
  options.shards = kShards;
  options.analytics = true;
  options.profile = &out.profile;
  const pipeline::VantageStats stats =
      pipeline::ParallelCollector(simulation, options).collect(ixps, days);
  const double t_collected = now_ms();

  out.tolerance =
      pipeline::compute_spoof_tolerance(stats, simulation.plan().unrouted_slash8s());
  pipeline::PipelineConfig config;
  config.volume_scale = simulation.config().volume_scale;
  config.spoof_tolerance_pkts = out.tolerance;
  const pipeline::InferenceEngine engine(config, simulation.plan().rib(), registry);
  const pipeline::InferenceResult result = pipeline::parallel_infer(engine, stats, threads);

  out.snapshot = serve::build_snapshot(result, simulation.plan().rib(), meta(stats, out.tolerance));
  const double t_built = now_ms();
  out.snapshot.analytics = serve::build_analytics(stats.ibr(), out.snapshot,
                                                  ingest::plan_labeler(simulation.plan()));
  const double t_analyzed = now_ms();
  out.bytes = serve::serialize_snapshot(out.snapshot);
  out.wall_ms = now_ms() - t0;
  out.stage_ms = {t_collected - t0, t_built - t_collected, t_analyzed - t_built,
                  t0 + out.wall_ms - t_analyzed};
  out.store.read(stats);
  return out;
}

MetaFn bench_meta(unsigned threads, std::uint32_t days, const char* source) {
  return [=](const pipeline::VantageStats& stats, std::uint64_t tolerance) {
    serve::RunMetadata meta;
    meta.seed = kUniverseSeed;
    meta.spoof_tolerance_pkts = tolerance;
    meta.flows_ingested = stats.flows_ingested();
    meta.created_unix_s = 1'700'000'000;
    meta.threads = threads;
    meta.shards = kShards;
    meta.days = days;
    meta.source = source;
    return meta;
  };
}

bool funnel_consistent(const serve::TelescopeSnapshot& snapshot) {
  const pipeline::FunnelCounts& f = snapshot.funnel;
  const std::uint64_t steps[] = {f.seen,           f.after_tcp,    f.after_size, f.after_source,
                                 f.after_reserved, f.after_routed, f.after_volume};
  for (std::size_t i = 1; i < std::size(steps); ++i) {
    // seen - eliminated(step) = survivors(step), with eliminated >= 0.
    if (steps[i] > steps[i - 1]) return false;
  }
  const std::uint64_t classified =
      snapshot.dark_count + snapshot.unclean_count + snapshot.gray_count;
  return classified == f.after_volume && classified == snapshot.blocks.size();
}

void corrupt(std::vector<std::uint8_t>& bytes) {
  if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x5a;
}

util::Result<bool> RunningServer::start(const serve::ServerConfig& config,
                                        obs::MetricsRegistry* metrics,
                                        const std::vector<int>& reactor_cpus) {
  stop();
  server_ = std::make_unique<serve::QueryServer>(config, metrics);
  auto started = server_->start();
  if (!started.ok()) return started;
  thread_ = std::thread([this] { server_->run(); });
  pin_thread(thread_, reactor_cpus);
  return true;
}

void RunningServer::stop() {
  if (!thread_.joinable()) return;
  server_->request_stop();
  thread_.join();
}

}  // namespace perfbench
