// batch-week: the one-shot paper reproduction.  The full-scale universe and
// all 14 IXPs over a multi-day window go through ParallelCollector (analytics
// tap on), the spoofing tolerance, the parallel funnel, snapshot + analytics
// build and MTSNAP encode.  The timed phase repeats that build; the ingest
// window and the serve plane sit idle.
#include <array>
#include <thread>

#include "deploy.hpp"
#include "flow/flow_batch.hpp"
#include "ingest/daemon.hpp"
#include "pipeline/collector.hpp"
#include "pipeline/shard_router.hpp"
#include "pipeline/spoof_tolerance.hpp"
#include "serve/analytics_format.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mtscope;

namespace {

/// Monday and Tuesday of the selected week (Monday alone in smoke runs).
std::vector<int> week_days(const Options& options) {
  const int monday = first_day(options);
  return options.smoke ? std::vector<int>{monday} : std::vector<int>{monday, monday + 1};
}

/// Round-trip and funnel checks on one build's outputs.
void check_build(const Options& options, BuildResult& build, Sheet& sheet) {
  if (options.fault == "snapshot") corrupt(build.bytes);
  const auto parsed = serve::parse_snapshot(build.bytes);
  sheet.check(parsed.ok(), "batch-week: snapshot does not parse back");
  if (parsed.ok()) {
    sheet.check(serve::serialize_snapshot(parsed.value()) == build.bytes,
                "batch-week: parse -> serialize is not byte-identical");
    sheet.check(parsed.value() == build.snapshot,
                "batch-week: parsed snapshot differs from the built one");
  }
  sheet.check(funnel_consistent(build.snapshot), "batch-week: funnel counts inconsistent");
  sheet.check(build.snapshot.analytics.has_value() && !build.snapshot.blocks.empty(),
              "batch-week: empty map or missing analytics section");
}

}  // namespace

void run_batch_week(const Options& options, Sheet& sheet) {
  record_common_params(options, sheet);
  const std::vector<int> days = week_days(options);
  const unsigned threads = pipeline_threads();
  sheet.counters["param.days"] = static_cast<double>(days.size());
  sheet.counters["param.load_threads_plus_connections"] = 0;

  // Set-up: the universe (plan, RIB, IXP fleet), built 9 times (median),
  // then one discarded warm-up build: a process's first build pays for
  // fresh heap pages that no later build does, so it is set-up work, not a
  // timed build.
  std::vector<double> universe_s;
  std::unique_ptr<sim::Simulation> simulation;
  for (int rep = 0; rep < 9; ++rep) {
    const double t0 = now_s();
    simulation = std::make_unique<sim::Simulation>(universe(options));
    universe_s.push_back(now_s() - t0);
  }
  const auto ixps = pipeline::all_ixps(*simulation);
  sheet.counters["param.ixps"] = static_cast<double>(ixps.size());
  const auto meta =
      bench_meta(threads, static_cast<std::uint32_t>(days.size()), "perfbench batch-week");
  const double warm_up_s = build_map(*simulation, ixps, days, threads, meta).wall_ms / 1e3;
  sheet.counters["batch.setup.universe_s"] = median(universe_s);
  sheet.counters["batch.setup.warm_up_build_s"] = warm_up_s;
  release_free_heap();

  // Timed phase: whole builds until the time is up (at least two).
  RssSampler rss;
  rss.start();
  std::vector<double> build_ms;
  std::vector<double> flows_per_s;
  std::uint64_t first_print = 0;
  BuildResult last;
  const double t_start = now_s();
  while (build_ms.size() < 2 || now_s() - t_start < options.seconds) {
    last = BuildResult{};
    last = build_map(*simulation, ixps, days, threads, meta);
    build_ms.push_back(last.wall_ms);
    flows_per_s.push_back(1e3 * static_cast<double>(last.store.flows) / last.wall_ms);
    const std::uint64_t print = fingerprint(last.bytes.data(), last.bytes.size());
    if (first_print == 0) first_print = print;
    sheet.check(print == first_print, "batch-week: repeated builds differ");
  }
  const double peak_mb = rss.stop();

  check_build(options, last, sheet);

  sheet.metrics["setup_s"] = {median(universe_s) + warm_up_s, "s",
                              "median of 9 universe builds + one warm-up build"};
  sheet.metrics["flows_per_s"] = {median(flows_per_s), "flows/s",
                                  "median of " + std::to_string(build_ms.size()) + " builds"};
  sheet.metrics["build_ms"] = {median(build_ms), "ms",
                               "median of " + std::to_string(build_ms.size()) + " builds"};
  sheet.metrics["peak_rss_mb"] = {peak_mb, "MB", "timed phase"};

  sheet.headline["setup_s"] = sheet.metrics["setup_s"];
  sheet.headline["throughput_per_s"] = {median(flows_per_s), "1/s", "flows_per_s"};
  sheet.headline["latency_ms"] = {median(build_ms), "ms", "build_ms (median)"};
  sheet.headline["peak_rss_mb"] = sheet.metrics["peak_rss_mb"];

  last.store.record(sheet, "batch.");
  sheet.counters["batch.builds"] = static_cast<double>(build_ms.size());
  sheet.counters["batch.snapshot_bytes"] = static_cast<double>(last.bytes.size());
  sheet.counters["batch.snapshot_blocks"] = static_cast<double>(last.snapshot.blocks.size());
  sheet.counters["batch.spoof_tolerance_pkts"] = static_cast<double>(last.tolerance);
  sheet.counters["batch.collect.sim_ms"] = last.profile.sim_ms;
  sheet.counters["batch.collect.parse_ms"] = last.profile.parse_ms;
  sheet.counters["batch.collect.insert_ms"] = last.profile.insert_ms;
  sheet.counters["batch.collect.merge_ms"] = last.profile.merge_ms;
  sheet.counters["batch.collect.total_ms"] = last.profile.total_ms;
}

// ---------------------------------------------------------------------------
// Traced composition: ParallelCollector::collect re-composed from the public
// calls it makes, with a span around each, then the rest of the build.

namespace {

/// What one traced build saw, beyond its spans.
struct TracedBatch {
  std::uint64_t root = Tracer::kNone;
  std::vector<std::uint8_t> bytes;
  StoreCounts store;
  std::uint64_t seen = 0;  // funnel: blocks receiving traffic
  std::uint64_t dark = 0;
  double shard_skew = 0.0;  // busiest shard's routed rows / mean
  std::uint64_t ipfix_bytes = 0;
  std::uint64_t sets_skipped = 0;
};

TracedBatch trace_batch_week(const sim::Simulation& simulation, std::span<const std::size_t> ixps,
                             std::span<const int> days, unsigned threads, Tracer& tracer) {
  static const routing::SpecialPurposeRegistry registry =
      routing::SpecialPurposeRegistry::standard();
  TracedBatch out;
  Scope root(&tracer, "bench", "batch-week build");
  out.root = root.id();

  std::vector<std::pair<std::size_t, int>> tasks;
  for (const int day : days) {
    for (const std::size_t ixp : ixps) tasks.emplace_back(ixp, day);
  }
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(std::max(1u, threads), tasks.size()));
  const auto mask = simulation.plan().universe_mask();

  struct WorkerCounts {
    std::uint64_t ipfix_bytes = 0;
    std::uint64_t sets_skipped = 0;
    std::vector<std::uint64_t> shard_rows = std::vector<std::uint64_t>(kShards, 0);
  };
  std::vector<std::vector<pipeline::VantageStats>> local(workers);
  std::vector<WorkerCounts> counts(workers);
  pipeline::VantageStats stats;
  {
    Scope collect(&tracer, "pipeline", "ParallelCollector::collect");
    for (auto& mine : local) {
      for (unsigned s = 0; s < kShards; ++s) mine.emplace_back(mask, true);
    }
    const auto worker_body = [&](unsigned w) {
      tracer.adopt(collect.id());
      flow::FlowBatch batch;
      pipeline::ShardRouter router;
      std::vector<pipeline::VantageStats>& mine = local[w];
      WorkerCounts& mine_counts = counts[w];
      for (std::size_t t = w; t < tasks.size(); t += workers) {
        const auto [ixp, day] = tasks[t];
        Scope run(&tracer, "sim", "Simulation::run_ixp_day");
        const sim::IxpDayData data = simulation.run_ixp_day(ixp, day);
        run.end();
        mine_counts.ipfix_bytes += data.ipfix_bytes;
        mine_counts.sets_skipped += data.ipfix_sets_skipped;
        const std::uint32_t rate = simulation.ixps()[ixp].sampling_rate();
        mine[0].note_day(day);
        const std::span<const flow::FlowRecord> flows(data.flows);
        for (std::size_t first = 0; first < flows.size();
             first += flow::FlowBatch::kDefaultRecords) {
          const std::size_t n =
              std::min<std::size_t>(flow::FlowBatch::kDefaultRecords, flows.size() - first);
          {
            Scope decode(&tracer, "flow", "FlowBatch::decode");
            batch.decode(flows.subspan(first, n), rate);
          }
          {
            Scope route(&tracer, "pipeline", "ShardRouter::route");
            router.route(batch, kShards);
          }
          for (unsigned s = 0; s < kShards; ++s) {
            mine_counts.shard_rows[s] += router.rx_rows(s).size();
            {
              Scope rx(&tracer, "pipeline", "VantageStats::add_batch_rx");
              mine[s].add_batch_rx(batch, router.rx_rows(s));
            }
            {
              Scope tx(&tracer, "pipeline", "VantageStats::add_batch_tx");
              mine[s].add_batch_tx(batch, router.tx_rows(s));
            }
            Scope tap(&tracer, "analytics", "VantageStats::add_analytics_batch");
            mine[s].add_analytics_batch(batch, router.rx_rows(s), day);
          }
        }
      }
    };
    if (workers > 1) {
      std::vector<std::thread> pool;
      for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker_body, w);
      for (auto& thread : pool) thread.join();
    } else {
      worker_body(0);
    }

    Scope merge(&tracer, "pipeline", "merge");
    if (workers > 1) {
      // One fold task per shard column, dealt over the same worker count.
      std::vector<std::thread> folds;
      for (unsigned w = 0; w < workers; ++w) {
        folds.emplace_back([&, w] {
          tracer.adopt(merge.id());
          for (unsigned s = w; s < kShards; s += workers) {
            for (unsigned v = 1; v < workers; ++v) {
              Scope fold(&tracer, "pipeline", "VantageStats::merge");
              local[0][s].merge(local[v][s]);
            }
          }
        });
      }
      for (auto& thread : folds) thread.join();
    }
    std::size_t total_rows = 0;
    for (unsigned s = 0; s < kShards; ++s) total_rows += local[0][s].blocks().size();
    std::vector<const pipeline::VantageStats*> rest;
    for (unsigned s = 1; s < kShards; ++s) rest.push_back(&local[0][s]);
    Scope fold(&tracer, "pipeline", "merge_stats");
    stats = pipeline::merge_stats(std::move(local[0][0]), rest, total_rows);
  }
  local.clear();

  Scope tolerance_span(&tracer, "pipeline", "compute_spoof_tolerance");
  const std::uint64_t tolerance =
      pipeline::compute_spoof_tolerance(stats, simulation.plan().unrouted_slash8s());
  tolerance_span.end();
  pipeline::PipelineConfig config;
  config.volume_scale = simulation.config().volume_scale;
  config.spoof_tolerance_pkts = tolerance;
  const pipeline::InferenceEngine engine(config, simulation.plan().rib(), registry);
  Scope funnel(&tracer, "pipeline", "parallel_infer");
  const pipeline::InferenceResult result = pipeline::parallel_infer(engine, stats, threads);
  funnel.end();

  Scope build(&tracer, "serve", "build_snapshot");
  serve::TelescopeSnapshot snapshot = serve::build_snapshot(
      result, simulation.plan().rib(),
      bench_meta(threads, static_cast<std::uint32_t>(days.size()), "perfbench batch-week")(
          stats, tolerance));
  build.end();
  Scope rollup(&tracer, "analytics", "build_analytics");
  snapshot.analytics =
      serve::build_analytics(stats.ibr(), snapshot, ingest::plan_labeler(simulation.plan()));
  rollup.end();
  Scope encode(&tracer, "serve", "serialize_snapshot");
  out.bytes = serve::serialize_snapshot(snapshot);
  encode.end();
  root.end();

  out.store.read(stats);
  out.seen = result.funnel.seen;
  out.dark = result.dark_count();
  std::uint64_t max_rows = 0;
  std::uint64_t sum_rows = 0;
  for (unsigned s = 0; s < kShards; ++s) {
    std::uint64_t rows = 0;
    for (const WorkerCounts& c : counts) rows += c.shard_rows[s];
    max_rows = std::max(max_rows, rows);
    sum_rows += rows;
  }
  out.shard_skew = sum_rows == 0 ? 0.0
                                 : static_cast<double>(max_rows) * kShards /
                                       static_cast<double>(sum_rows);
  for (const WorkerCounts& c : counts) {
    out.ipfix_bytes += c.ipfix_bytes;
    out.sets_skipped += c.sets_skipped;
  }
  return out;
}

}  // namespace

LedgerPart ledger_batch_week(const Options& options, Sheet& sheet) {
  const std::vector<int> days = week_days(options);
  const unsigned threads = pipeline_threads();
  const auto meta =
      bench_meta(threads, static_cast<std::uint32_t>(days.size()), "perfbench batch-week");
  const sim::Simulation simulation(universe(options));
  const auto ixps = pipeline::all_ixps(simulation);
  const auto untraced_build = [&] { return build_map(simulation, ixps, days, threads, meta); };

  // One discarded warm-up build: the first build of a process pays for
  // fresh heap pages that no later build does.  Then untraced builds (the
  // production calls) and traced compositions of the same work alternate,
  // so drift on the host lands on both sides alike.  The overhead, the
  // collect profile and the spans all come from warm builds.
  const std::vector<std::uint8_t> reference = untraced_build().bytes;
  constexpr int kReps = 3;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<pipeline::CollectProfile> profiles;
  std::vector<std::array<double, 4>> stages;
  std::unique_ptr<Tracer> tracer;
  TracedBatch traced;
  for (int rep = 0; rep < kReps; ++rep) {
    const BuildResult untraced = untraced_build();
    untraced_ms.push_back(untraced.wall_ms);
    profiles.push_back(untraced.profile);
    stages.push_back(untraced.stage_ms);
    sheet.check(untraced.bytes == reference, "ledger: repeated batch-week builds differ");
    tracer = std::make_unique<Tracer>();
    traced = trace_batch_week(simulation, ixps, days, threads, *tracer);
    traced_ms.push_back(summarize(tracer->spans(), traced.root).root_ms);
    sheet.check(traced.bytes == reference,
                "ledger: traced batch-week composition differs from ParallelCollector's bytes");
  }
  LedgerPart part;
  part.summary = summarize(tracer->spans(), traced.root);  // the last warm traced build
  part.traced_ms = median(traced_ms);
  part.untraced_ms = median(untraced_ms);

  // The single-threaded baseline of the same build.
  Tracer serial_tracer;
  const TracedBatch serial = trace_batch_week(simulation, ixps, days, 1, serial_tracer);
  const TraceSummary serial_summary = summarize(serial_tracer.spans(), serial.root);
  sheet.check(serial.dark == traced.dark && serial.store.rows == traced.store.rows,
              "ledger: threads=1 batch-week build disagrees with the threaded one");

  const TraceSummary& t = part.summary;
  const double flows = static_cast<double>(traced.store.flows);
  const double rows = static_cast<double>(traced.store.rows);
  const auto per_flow_ns = [&](const char* call) { return t.total_ms(call) * 1e6 / flows; };
  auto& L = sheet.layers;
  const double days_run = static_cast<double>(t.count("sim/Simulation::run_ixp_day"));
  L["sim.ms_per_ixp_day"] = {t.total_ms("sim/Simulation::run_ixp_day") / days_run, "ms", ""};
  L["sim.ipfix_bytes_per_flow"] = {static_cast<double>(traced.ipfix_bytes) / flows, "B", ""};
  L["sim.ipfix_sets_skipped"] = {static_cast<double>(traced.sets_skipped), "count", ""};
  L["flow.decode_ns_per_flow"] = {per_flow_ns("flow/FlowBatch::decode"), "ns", ""};
  L["pipeline.route_ns_per_flow"] = {per_flow_ns("pipeline/ShardRouter::route"), "ns", ""};
  L["pipeline.shard_skew"] = {traced.shard_skew, "ratio", "busiest shard / mean"};
  L["pipeline.insert_ns_per_flow"] = {per_flow_ns("pipeline/VantageStats::add_batch_rx") +
                                          per_flow_ns("pipeline/VantageStats::add_batch_tx"),
                                      "ns", ""};
  L["analytics.tap_ns_per_flow"] = {per_flow_ns("analytics/VantageStats::add_analytics_batch"),
                                    "ns", ""};
  L["analytics.cells"] = {static_cast<double>(traced.store.analytics_cells), "count", ""};
  L["pipeline.merge_ms"] = {t.total_ms("pipeline/merge"), "ms", ""};
  L["pipeline.merge_rows"] = {rows, "count", ""};
  L["pipeline.store_bytes_per_block"] = {static_cast<double>(traced.store.memory_bytes) / rows,
                                         "B", ""};
  L["pipeline.store_load_factor"] = {traced.store.load_factor, "ratio", ""};
  L["pipeline.arena_spills_per_block"] = {static_cast<double>(traced.store.arena_spills) / rows,
                                          "count", ""};
  L["pipeline.arena_wasted_share"] = {
      traced.store.arena_allocated == 0
          ? 0.0
          : static_cast<double>(traced.store.arena_wasted) /
                static_cast<double>(traced.store.arena_allocated),
      "ratio", ""};
  const auto stage = [&](double pipeline::CollectProfile::*field, const char* how) {
    std::vector<double> values;
    for (const auto& profile : profiles) values.push_back(profile.*field);
    return Metric{median(values), "ms",
                  std::string(how) + ", median of " + std::to_string(kReps) + " warm builds"};
  };
  L["pipeline.collect.sim_ms"] = stage(&pipeline::CollectProfile::sim_ms, "summed over workers");
  L["pipeline.collect.parse_ms"] =
      stage(&pipeline::CollectProfile::parse_ms, "summed over workers");
  L["pipeline.collect.insert_ms"] =
      stage(&pipeline::CollectProfile::insert_ms, "summed over workers");
  L["pipeline.collect.merge_ms"] = stage(&pipeline::CollectProfile::merge_ms, "wall");
  L["pipeline.collect.total_ms"] = stage(&pipeline::CollectProfile::total_ms, "wall");
  L["pipeline.tolerance_ms"] = {t.total_ms("pipeline/compute_spoof_tolerance"), "ms", ""};
  L["pipeline.funnel_ns_per_block"] = {t.total_ms("pipeline/parallel_infer") * 1e6 / rows, "ns",
                                       ""};
  L["pipeline.funnel_dark_share"] = {
      traced.seen == 0 ? 0.0 : static_cast<double>(traced.dark) / static_cast<double>(traced.seen),
      "ratio", "dark / seen"};
  L["analytics.build_ms"] = {t.total_ms("analytics/build_analytics"), "ms", ""};
  L["pipeline.threads1_over_threadsN"] = {serial_summary.root_ms / part.traced_ms, "ratio",
                                          "threads=1 build wall / threads=" +
                                              std::to_string(threads) + " build wall"};
  sheet.counters["ledger.batch.threads1_build_ms"] = serial_summary.root_ms;
  sheet.counters["ledger.batch.build_ms"] = part.traced_ms;
  sheet.counters["ledger.batch.untraced_build_ms"] = part.untraced_ms;
  // Stage by stage, the untraced builds (median) next to the last traced
  // one, so the spans can be held against the wall time they stand for.
  static const std::pair<const char*, std::vector<const char*>> kStages[] = {
      {"collect", {"pipeline/ParallelCollector::collect"}},
      {"funnel_snapshot",
       {"pipeline/compute_spoof_tolerance", "pipeline/parallel_infer", "serve/build_snapshot"}},
      {"analytics", {"analytics/build_analytics"}},
      {"serialize", {"serve/serialize_snapshot"}}};
  for (std::size_t i = 0; i < std::size(kStages); ++i) {
    std::vector<double> values;
    for (const auto& stage_ms : stages) values.push_back(stage_ms[i]);
    double spans_ms = 0.0;
    for (const char* call : kStages[i].second) spans_ms += t.total_ms(call);
    const std::string name = std::string("ledger.batch.stage.") + kStages[i].first;
    sheet.counters[name + ".untraced_ms"] = median(values);
    sheet.counters[name + ".traced_ms"] = spans_ms;
  }
  traced.store.record(sheet, "ledger.batch.");
  return part;
}

}  // namespace perfbench
