// live-ingest: the continuous deployment.  An MTFLOW stream made in set-up
// (one vantage point of the full-scale plan, four days) is fed through a
// FIFO into an IngestDaemon (sliding window, cadence 1, analytics on) that
// publishes atomically into a QueryServer in watch mode, while one MTBIN
// loadgen connection queries the server open-loop at a fixed rate.  Each
// reload runs on reactor 0 and stalls its connections, so the loadgen's
// tail includes reload stalls.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <fstream>
#include <functional>
#include <iterator>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "ingest/daemon.hpp"
#include "ingest/flow_stream.hpp"
#include "ingest/publish.hpp"
#include "ingest/window.hpp"
#include "obs/metrics.hpp"
#include "pipeline/collector.hpp"
#include "pipeline/spoof_tolerance.hpp"
#include "serve/analytics_format.hpp"
#include "serve/loadgen.hpp"
#include "serve/telescope_index.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mtscope;

namespace {

constexpr int kWindowDays = 2;
constexpr std::uint64_t kCreated = 1'700'000'000;
constexpr int kWatchIntervalMs = 5;

/// Load threads + connections during the timed phase: the stream writer,
/// plus the MTBIN reader's sender and receiver threads and its connection.
constexpr unsigned kWriterLoad = 1;
constexpr unsigned kReaderLoad = 3;

/// The reader runs only when the writer and the reader together fit in
/// nproc; on smaller hosts the workload ingests and publishes unread.
bool with_reader() { return kWriterLoad + kReaderLoad <= load_budget(); }

/// The stream's days: Monday on of the selected week, four (two in smoke
/// runs).
std::vector<int> pass_days(const Options& options) {
  std::vector<int> days;
  for (int d = 0; d < (options.smoke ? 2 : 4); ++d) days.push_back(first_day(options) + d);
  return days;
}

/// The stream's universe, as its header names it: the full-scale plan, or
/// the tiny one in smoke runs.  The daemon rebuilds the same plan from the
/// header.
sim::SimConfig stream_universe(const ingest::StreamHeader& header) {
  if (header.tiny) return sim::SimConfig::tiny(header.seed);
  sim::SimConfig config;
  config.seed = header.seed;
  return config;
}

ingest::StreamHeader stream_header(const Options& options) {
  return {kUniverseSeed, options.smoke};
}

/// The vantage points the stream carries: CE1 alone on the full-scale
/// plan (~0.25 M flows a day).  A tiny-plan stream carries ~0.3 M flows a
/// day too, but its single general /8 makes the per-seed volume swing by
/// +-10% and the epoch lag by a third; the full plan averages that out.
std::vector<std::size_t> stream_ixps(const sim::Simulation& simulation, const Options& options) {
  if (options.smoke) return pipeline::all_ixps(simulation);
  return {simulation.ixp_index("CE1")};
}

/// The whole stream of one pass, serialized once in set-up, with the byte
/// offset just past each day-end frame.
struct StreamImage {
  std::string bytes;
  std::vector<std::size_t> day_end;
  std::uint64_t flows = 0;
  std::uint64_t datasets = 0;
};

StreamImage make_stream(const sim::Simulation& simulation, const ingest::StreamHeader& header,
                        std::span<const std::size_t> ixps, std::span<const int> days) {
  std::ostringstream out(std::ios::binary);
  ingest::FlowStreamWriter writer(out);
  writer.write_header(header);
  StreamImage image;
  for (const int day : days) {
    for (const std::size_t i : ixps) {
      const sim::IxpDayData data = simulation.run_ixp_day(i, day);
      writer.write_dataset(day, simulation.ixps()[i].sampling_rate(),
                           simulation.ixps()[i].spec().code, data.flows);
      image.flows += data.flows.size();
      image.datasets += 1;
    }
    writer.write_day_end(day);
    image.day_end.push_back(static_cast<std::size_t>(out.tellp()));
  }
  writer.write_stream_end();
  image.bytes = std::move(out).str();
  return image;
}

/// The producer side: writes the image into the FIFO, stamping the moment
/// each day-end frame has been handed to the pipe.
struct WriterLog {
  double first_write_s = 0.0;
  std::vector<double> day_end_s;
  bool ok = false;
};

void feed_fifo(const std::string& path, const StreamImage& image, WriterLog& log) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);  // waits for the reader
  if (fd < 0) return;
  log.first_write_s = now_s();
  std::size_t at = 0;
  for (std::size_t i = 0; i <= image.day_end.size(); ++i) {
    const std::size_t until = i < image.day_end.size() ? image.day_end[i] : image.bytes.size();
    while (at < until) {
      const auto n = ::write(fd, image.bytes.data() + at, std::min<std::size_t>(until - at, 1 << 16));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ::close(fd);
        return;
      }
      at += static_cast<std::size_t>(n);
    }
    if (i < image.day_end.size()) log.day_end_s.push_back(now_s());
  }
  ::close(fd);
  log.ok = true;
}

/// Opens and closes the read end once, so a writer blocked in open() (its
/// reader failed before opening the FIFO) returns.
void release_writer(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd >= 0) ::close(fd);
}

/// Polls ServerStats::reloads and stamps every change.
class ReloadWatcher {
 public:
  explicit ReloadWatcher(serve::QueryServer& server)
      : server_(server), first_(server.stats().reloads) {
    thread_ = std::thread([this] {
      std::uint64_t last = first_;
      while (running_.load(std::memory_order_relaxed)) {
        const std::uint64_t now = server_.stats().reloads;
        if (now != last) {
          events_.emplace_back(now_s(), now);
          last = now;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  ReloadWatcher(const ReloadWatcher&) = delete;
  ReloadWatcher& operator=(const ReloadWatcher&) = delete;
  ~ReloadWatcher() { stop(); }

  /// Stops polling; returns (time, reloads) at each observed change.
  const std::vector<std::pair<double, std::uint64_t>>& stop() {
    if (thread_.joinable()) {
      running_.store(false);
      thread_.join();
      // A reload that landed after the last poll.
      const std::uint64_t now = server_.stats().reloads;
      if (events_.empty() ? now != first_ : now != events_.back().second) {
        events_.emplace_back(now_s(), now);
      }
    }
    return events_;
  }

 private:
  serve::QueryServer& server_;
  const std::uint64_t first_;
  std::atomic<bool> running_{true};
  std::vector<std::pair<double, std::uint64_t>> events_;
  std::thread thread_;
};

/// Set-up products shared by the timed phase and the ledger.
struct LiveRig {
  StreamImage image;
  std::string fifo;
  std::string snapshot;
  RunningServer server;
  ReadRate read;  // the reader's open-loop rate (zero without a reader)
};

/// Generates the stream, publishes an empty bootstrap epoch (the server
/// needs a loadable file to start), starts the watching server and, when
/// the reader runs, measures its rate against that server.  The probe's
/// lookups all miss the empty epoch; a depth-1 round trip is dominated by
/// the loopback socket, not the index.
void set_up(const Options& options, LiveRig& rig, obs::MetricsRegistry* server_metrics) {
  const ingest::StreamHeader header = stream_header(options);
  const sim::Simulation simulation(stream_universe(header));
  rig.image =
      make_stream(simulation, header, stream_ixps(simulation, options), pass_days(options));
  rig.fifo = options.work_dir + "/live.fifo";
  rig.snapshot = options.work_dir + "/live.snap";
  ::unlink(rig.fifo.c_str());
  if (::mkfifo(rig.fifo.c_str(), 0600) != 0) throw std::runtime_error("mkfifo " + rig.fifo);
  serve::RunMetadata meta;
  meta.seed = kUniverseSeed;
  meta.source = "perfbench bootstrap epoch";
  const auto published = ingest::publish_snapshot(
      serve::build_snapshot(pipeline::InferenceResult{}, simulation.plan().rib(), meta),
      rig.snapshot);
  if (!published.ok()) throw std::runtime_error(published.error().to_string());
  serve::ServerConfig config;
  config.snapshot_path = rig.snapshot;
  config.reactors = 1;
  config.max_conns = 16;
  config.watch_interval_ms = kWatchIntervalMs;
  const auto started = rig.server.start(config, server_metrics, cpu_for(0));
  if (!started.ok()) throw std::runtime_error(started.error().to_string());
  if (!with_reader()) return;
  const ScopedAffinity pinned(cpu_for(1));  // where the reader will run
  const auto read = measure_read_rate(rig.server.port(), serve::WireProtocol::kBinary,
                                      options.read_share, options.seed);
  if (!read.ok()) throw std::runtime_error(read.error().to_string());
  rig.read = read.value();
}

ingest::IngestConfig daemon_config(const LiveRig& rig) {
  ingest::IngestConfig config;
  config.source_path = rig.fifo;
  config.snapshot_out = rig.snapshot;
  config.window_days = kWindowDays;
  config.cadence_days = 1;
  config.analytics = true;
  config.created_unix_s = kCreated;
  return config;
}

/// One pass of the deployment: the whole stream through the daemon.
struct PassResult {
  bool ok = false;
  std::string error;
  ingest::IngestTotals totals;
  WriterLog writer;
  std::vector<double> publish_s;
  std::vector<double> lag_ms;  // day-end written -> new epoch served
  std::uint64_t unserved = 0;  // epochs the server never reloaded
  double flows_per_s = 0.0;
  double wall_ms = 0.0;        // first flow written -> final snapshot published
};

PassResult run_pass(LiveRig& rig, obs::MetricsRegistry* daemon_metrics) {
  PassResult pass;
  serve::QueryServer& server = rig.server.server();
  const std::uint64_t base = server.stats().reloads;
  ReloadWatcher watcher(server);
  std::thread writer([&] {
    const ScopedAffinity pinned(cpu_for(3));
    feed_fifo(rig.fifo, rig.image, pass.writer);
  });

  const ScopedAffinity pinned(cpu_for(2));
  ingest::IngestDaemon daemon(daemon_config(rig), daemon_metrics);
  daemon.on_publish = [&pass](std::uint64_t, const serve::TelescopeSnapshot&) {
    pass.publish_s.push_back(now_s());
  };
  const auto run = daemon.run();
  if (!run.ok()) release_writer(rig.fifo);
  writer.join();
  if (!run.ok()) {
    pass.error = run.error().to_string();
    return pass;
  }
  pass.totals = run.value();

  // Wait (bounded) until the server has picked up every epoch.
  const double deadline = now_s() + 5.0;
  while (server.stats().reloads < base + pass.totals.publishes && now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto& events = watcher.stop();
  for (std::size_t k = 0; k < pass.publish_s.size() && k < pass.writer.day_end_s.size(); ++k) {
    const auto served = std::find_if(events.begin(), events.end(), [&](const auto& event) {
      return event.second >= base + k + 1;
    });
    if (served == events.end()) {
      pass.unserved += 1;
      continue;
    }
    pass.lag_ms.push_back(1e3 * (served->first - pass.writer.day_end_s[k]));
  }
  if (!pass.publish_s.empty()) {
    pass.wall_ms = 1e3 * (pass.publish_s.back() - pass.writer.first_write_s);
    pass.flows_per_s = 1e3 * static_cast<double>(pass.totals.flows) / pass.wall_ms;
  }
  pass.ok = true;
  return pass;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The DESIGN.md §13 contract: the final epoch equals a batch
/// ParallelCollector build over the retained days, stamped with
/// ingest::publish_metadata.
std::vector<std::uint8_t> batch_reference(const Options& options) {
  const ingest::StreamHeader header = stream_header(options);
  const sim::Simulation simulation(stream_universe(header));
  const std::vector<int> streamed = pass_days(options);
  const std::vector<int> days(
      streamed.end() - std::min<std::ptrdiff_t>(kWindowDays, std::ssize(streamed)),
      streamed.end());
  const MetaFn meta = [&](const pipeline::VantageStats& stats, std::uint64_t tolerance) {
    return ingest::publish_metadata(header, kWindowDays, days, stats.flows_ingested(), tolerance,
                                    kCreated);
  };
  return build_map(simulation, stream_ixps(simulation, options), days, pipeline_threads(), meta)
      .bytes;
}

void check_pass(const PassResult& pass, const LiveRig& rig, int days, Sheet& sheet) {
  sheet.check(pass.ok, "live-ingest: daemon failed: " + pass.error);
  if (!pass.ok) return;
  sheet.check(pass.writer.ok, "live-ingest: stream writer failed");
  sheet.check(pass.totals.flows == rig.image.flows, "live-ingest: daemon lost flows");
  sheet.check(pass.totals.publish_failures == 0, "live-ingest: publish failures",
              pass.totals.publish_failures + 1);
  sheet.check(pass.totals.publishes == static_cast<std::uint64_t>(days),
              "live-ingest: missing epochs");
  sheet.check(pass.unserved == 0, "live-ingest: epochs never served", pass.unserved + 1);
}

}  // namespace

void run_live_ingest(const Options& options, Sheet& sheet) {
  record_common_params(options, sheet);
  const int days = static_cast<int>(pass_days(options).size());
  sheet.counters["param.days_per_pass"] = days;
  sheet.counters["param.window_days"] = kWindowDays;
  sheet.counters["param.cadence_days"] = 1;
  sheet.counters["param.reactors"] = 1;
  sheet.counters["param.watch_interval_ms"] = kWatchIntervalMs;
  const bool reader = with_reader();
  sheet.counters["param.loadgen_connections"] = reader ? 1 : 0;
  sheet.counters["param.load_threads_plus_connections"] = kWriterLoad + (reader ? kReaderLoad : 0);
  sheet.params["stream"] = options.smoke ? std::string("tiny plan, all IXPs")
                                         : std::string("full-scale plan, CE1");

  // Set-up, repeated; the last rig is the one measured.
  std::vector<double> setup_s;
  auto rig = std::make_unique<LiveRig>();
  for (int rep = 0; rep < 3; ++rep) {
    rig.reset();
    release_free_heap();
    const double t0 = now_s();
    rig = std::make_unique<LiveRig>();
    set_up(options, *rig, nullptr);
    setup_s.push_back(now_s() - t0);
  }
  sheet.counters["stream.flows"] = static_cast<double>(rig->image.flows);
  sheet.counters["stream.datasets"] = static_cast<double>(rig->image.datasets);
  sheet.counters["stream.bytes"] = static_cast<double>(rig->image.bytes.size());
  sheet.counters["param.loadgen_rate_qps"] = static_cast<double>(rig->read.rate_qps);
  sheet.counters["read.capacity_qps"] = rig->read.capacity_qps;

  RssSampler rss;
  rss.start();
  serve::LoadgenConfig lg;
  lg.port = rig->server.port();
  lg.mode = serve::LoadMode::kOpen;
  lg.proto = serve::WireProtocol::kBinary;
  lg.connections = 1;
  lg.steps = {rig->read.rate_qps};
  lg.warmup_ms = 200;
  lg.measure_ms = static_cast<int>(options.seconds * 1e3);
  lg.cooldown_ms = 100;
  lg.seed = options.seed;
  util::Result<std::vector<serve::StepResult>> load =
      util::make_error("loadgen.config", "not run");
  std::thread loadgen;
  if (reader) {
    loadgen = std::thread([&] {
      const ScopedAffinity pinned(cpu_for(1));  // its sender and receiver inherit it
      load = serve::run_loadgen(lg);
    });
  }

  std::vector<PassResult> passes;
  const double t_start = now_s();
  while (passes.empty() || now_s() - t_start < options.seconds) {
    passes.push_back(run_pass(*rig, nullptr));
    if (!passes.back().ok) break;
  }
  if (loadgen.joinable()) loadgen.join();
  rig->server.stop();
  const double peak_mb = rss.stop();

  // Checks (outside the timed region).
  std::vector<double> lag_ms;
  std::vector<double> flows_per_s;
  ingest::IngestTotals totals;
  for (const PassResult& pass : passes) {
    check_pass(pass, *rig, days, sheet);
    lag_ms.insert(lag_ms.end(), pass.lag_ms.begin(), pass.lag_ms.end());
    if (pass.ok) flows_per_s.push_back(pass.flows_per_s);
    totals.datasets += pass.totals.datasets;
    totals.flows += pass.totals.flows;
    totals.days += pass.totals.days;
    totals.days_evicted += pass.totals.days_evicted;
    totals.rows_evicted += pass.totals.rows_evicted;
    totals.publishes += pass.totals.publishes;
    totals.publish_failures += pass.totals.publish_failures;
  }
  const serve::ServerStats stats = rig->server.server().stats();
  sheet.check(stats.reload_failures == 0, "live-ingest: reload failures",
              stats.reload_failures + 1);
  sheet.check(stats.drops == 0 && stats.invalid == 0, "live-ingest: server drops/invalid");
  serve::StepResult step;
  if (reader) {
    sheet.check(load.ok() && load.value().size() == 1, "live-ingest: loadgen failed");
    if (load.ok() && !load.value().empty()) step = load.value().front();
    sheet.attempted += step.sent;
    sheet.check(step.errors == 0, "live-ingest: loadgen errors", step.errors);
    sheet.check(step.samples > 0, "live-ingest: loadgen recorded no samples");
  }

  std::vector<std::uint8_t> reference = batch_reference(options);
  if (options.fault == "snapshot") corrupt(reference);
  sheet.check(read_file(rig->snapshot) == reference,
              "live-ingest: final epoch differs from the batch build of the same days");

  const std::string n_passes = std::to_string(passes.size()) + " passes";
  sheet.metrics["setup_s"] = {median(setup_s), "s", "median of 3 set-ups"};
  sheet.metrics["flows_per_s"] = {median(flows_per_s), "flows/s", "median of " + n_passes};
  sheet.metrics["epoch_lag_ms_p50"] = {median(lag_ms), "ms",
                                       std::to_string(lag_ms.size()) + " epochs"};
  const std::string no_reader = "no reader: writer + reader exceed nproc";
  sheet.metrics["binary_p50_us"] = {static_cast<double>(step.p50_us), "us",
                                    reader ? std::to_string(step.samples) + " samples" : no_reader};
  sheet.metrics["binary_p99_us"] = {
      static_cast<double>(step.p99_us), "us",
      !reader ? no_reader
              : std::to_string(step.samples) + " samples" +
                    (step.samples >= 1000 ? "" : "; fewer than 10 beyond p99")};
  sheet.metrics["peak_rss_mb"] = {peak_mb, "MB", "timed phase"};

  sheet.headline["setup_s"] = sheet.metrics["setup_s"];
  sheet.headline["throughput_per_s"] = {median(flows_per_s), "1/s", "flows_per_s"};
  sheet.headline["latency_ms"] = {median(lag_ms), "ms", "epoch_lag_ms_p50 (median)"};
  sheet.headline["peak_rss_mb"] = sheet.metrics["peak_rss_mb"];

  sheet.counters["ingest.passes"] = static_cast<double>(passes.size());
  sheet.counters["ingest.datasets"] = static_cast<double>(totals.datasets);
  sheet.counters["ingest.flows"] = static_cast<double>(totals.flows);
  sheet.counters["ingest.days"] = static_cast<double>(totals.days);
  sheet.counters["ingest.days_evicted"] = static_cast<double>(totals.days_evicted);
  sheet.counters["ingest.rows_evicted"] = static_cast<double>(totals.rows_evicted);
  sheet.counters["ingest.publishes"] = static_cast<double>(totals.publishes);
  sheet.counters["ingest.publish_failures"] = static_cast<double>(totals.publish_failures);
  sheet.counters["server.connections"] = static_cast<double>(stats.connections);
  sheet.counters["server.queries"] = static_cast<double>(stats.queries);
  sheet.counters["server.reloads"] = static_cast<double>(stats.reloads);
  sheet.counters["server.reload_failures"] = static_cast<double>(stats.reload_failures);
  sheet.counters["server.drops"] = static_cast<double>(stats.drops);
  sheet.counters["server.invalid"] = static_cast<double>(stats.invalid);
  sheet.counters["server.partial_flushes"] = static_cast<double>(stats.partial_flushes);
  sheet.counters["loadgen.sent"] = static_cast<double>(step.sent);
  sheet.counters["loadgen.received"] = static_cast<double>(step.received);
  sheet.counters["loadgen.errors"] = static_cast<double>(step.errors);
  sheet.counters["loadgen.samples"] = static_cast<double>(step.samples);
  sheet.counters["loadgen.offered_qps"] = step.offered_qps;
  sheet.counters["loadgen.achieved_qps"] = step.achieved_qps;
  sheet.counters["snapshot.final_bytes"] = static_cast<double>(reference.size());
}

// ---------------------------------------------------------------------------
// Ledger: untraced passes through the real daemon (its ingest.* timers
// attached on the first), alternating with the daemon's loop re-composed
// from the public calls it makes, with a span around each and a reload done
// inline.

namespace {

struct TracedLive {
  std::uint64_t root = Tracer::kNone;
  std::uint64_t flows = 0;
  std::uint64_t epochs = 0;
  std::uint64_t publish_failures = 0;
  std::uint64_t reload_failures = 0;
  std::uint64_t rows_evicted = 0;
  std::uint64_t window_rows = 0;  // merged rows at the last epoch
  std::uint64_t funnel_rows = 0;  // summed over epochs
};

TracedLive trace_pass(const LiveRig& rig, Tracer& tracer) {
  static const routing::SpecialPurposeRegistry registry =
      routing::SpecialPurposeRegistry::standard();
  TracedLive out;
  WriterLog log;
  std::thread writer([&] {
    const ScopedAffinity pinned(cpu_for(3));
    feed_fifo(rig.fifo, rig.image, log);
  });
  const ScopedAffinity pinned(cpu_for(2));
  serve::SnapshotManager manager;
  {
    Scope root(&tracer, "bench", "live-ingest pass");
    out.root = root.id();
    std::ifstream in(rig.fifo, std::ios::binary);
    ingest::FlowStreamReader reader(in);
    // On a stream error the read end closes before the join, so a writer
    // blocked on a full pipe gets EPIPE instead of waiting forever.
    const auto fail = [&](const util::Error& error) {
      in.close();
      writer.join();
      throw std::runtime_error(error.to_string());
    };
    const auto header = reader.read_header();
    if (!header.ok()) fail(header.error());
    Scope plan(&tracer, "sim", "Simulation::Simulation");
    const sim::Simulation simulation(stream_universe(header.value()));
    plan.end();
    ingest::SlidingWindow window(kWindowDays, simulation.plan().universe_mask(), true);
    const serve::BlockLabeler labeler = ingest::plan_labeler(simulation.plan());
    while (true) {
      Scope next(&tracer, "ingest", "FlowStreamReader::next");
      auto event = reader.next();
      next.end();
      if (!event.ok()) fail(event.error());
      const ingest::StreamEvent& e = event.value();
      if (e.kind == ingest::StreamEvent::Kind::kStreamEnd) break;
      if (e.kind == ingest::StreamEvent::Kind::kDataset) {
        Scope add(&tracer, "ingest", "SlidingWindow::add_flows");
        window.add_flows(e.day, e.flows, e.sampling_rate);
        out.flows += e.flows.size();
        continue;
      }
      {
        Scope slide(&tracer, "ingest", "SlidingWindow::advance_to");
        window.note_day(e.day);
        out.rows_evicted += window.advance_to(e.day).rows;
      }
      Scope merge(&tracer, "ingest", "SlidingWindow::merged");
      const pipeline::VantageStats stats = window.merged();
      merge.end();
      out.window_rows = stats.blocks().size();
      out.funnel_rows += stats.blocks().size();
      Scope tolerance_span(&tracer, "pipeline", "compute_spoof_tolerance");
      const std::uint64_t tolerance =
          pipeline::compute_spoof_tolerance(stats, simulation.plan().unrouted_slash8s());
      tolerance_span.end();
      pipeline::PipelineConfig config;
      config.volume_scale = simulation.config().volume_scale;
      config.spoof_tolerance_pkts = tolerance;
      const pipeline::InferenceEngine engine(config, simulation.plan().rib(), registry);
      Scope funnel(&tracer, "pipeline", "parallel_infer");
      const pipeline::InferenceResult result = pipeline::parallel_infer(engine, stats, 1);
      funnel.end();
      const auto meta = ingest::publish_metadata(header.value(), kWindowDays, window.days(),
                                                 stats.flows_ingested(), tolerance, kCreated);
      Scope build(&tracer, "serve", "build_snapshot");
      serve::TelescopeSnapshot snapshot =
          serve::build_snapshot(result, simulation.plan().rib(), meta);
      build.end();
      Scope rollup(&tracer, "analytics", "build_analytics");
      snapshot.analytics = serve::build_analytics(stats.ibr(), snapshot, labeler);
      rollup.end();
      Scope publish(&tracer, "ingest", "publish_snapshot");
      const bool published = ingest::publish_snapshot(snapshot, rig.snapshot).ok();
      publish.end();
      out.epochs += 1;
      if (!published) {
        out.publish_failures += 1;
        continue;
      }
      Scope reload(&tracer, "serve", "SnapshotManager::load_and_install");
      if (!manager.load_and_install(rig.snapshot).ok()) out.reload_failures += 1;
    }
  }
  writer.join();
  return out;
}

double median_ms_of(int reps, const std::function<void()>& call) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_ms();
    call();
    ms.push_back(now_ms() - t0);
  }
  return median(ms);
}

}  // namespace

LedgerPart ledger_live_ingest(const Options& options, Sheet& sheet) {
  LiveRig rig;
  set_up(options, rig, nullptr);
  const int days = static_cast<int>(pass_days(options).size());

  // One discarded warm-up pass (the first pass of a process pays for fresh
  // heap pages), then untraced passes through the real daemon and traced
  // compositions alternate, with the server watching throughout, so drift
  // on the host and the server's reloads land on both sides alike.  The
  // daemon's timers and the reload count come from the first untraced pass.
  check_pass(run_pass(rig, nullptr), rig, days, sheet);
  constexpr int kReps = 3;
  obs::MetricsRegistry daemon_metrics;
  std::uint64_t reloads = 0;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> reload_ms;  // the composition's inline reloads
  std::unique_ptr<Tracer> tracer;
  TracedLive traced;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t before = rig.server.server().stats().reloads;
    const PassResult untraced = run_pass(rig, rep == 0 ? &daemon_metrics : nullptr);
    check_pass(untraced, rig, days, sheet);
    if (rep == 0) reloads = rig.server.server().stats().reloads - before;
    untraced_ms.push_back(untraced.wall_ms);
    const std::vector<std::uint8_t> untraced_bytes = read_file(rig.snapshot);
    tracer = std::make_unique<Tracer>();
    traced = trace_pass(rig, *tracer);
    const TraceSummary summary = summarize(tracer->spans(), traced.root);
    traced_ms.push_back(summary.root_ms);
    reload_ms.push_back(summary.total_ms("serve/SnapshotManager::load_and_install"));
    sheet.check(read_file(rig.snapshot) == untraced_bytes,
                "ledger: traced live-ingest composition published different bytes");
    sheet.check(traced.publish_failures == 0 && traced.reload_failures == 0,
                "ledger: traced live-ingest publish/reload failed");
  }
  rig.server.stop();
  const serve::ServerStats server_stats = rig.server.server().stats();
  const std::vector<std::uint8_t> final_bytes = read_file(rig.snapshot);

  LedgerPart part;
  part.summary = summarize(tracer->spans(), traced.root);  // the last traced pass
  part.traced_ms = median(traced_ms);
  part.untraced_ms = median(untraced_ms);
  // The daemon leaves reloads to the server's reactor thread.
  part.excluded_ms = median(reload_ms);

  const TraceSummary& t = part.summary;
  const double flows = static_cast<double>(traced.flows);
  const double epochs = static_cast<double>(std::max<std::uint64_t>(1, traced.epochs));
  auto& L = sheet.layers;
  L["ingest.stream_decode_ns_per_flow"] = {t.total_ms("ingest/FlowStreamReader::next") * 1e6 / flows,
                                           "ns", "includes FIFO reads"};
  L["ingest.window_add_ns_per_flow"] = {t.total_ms("ingest/SlidingWindow::add_flows") * 1e6 / flows,
                                        "ns", ""};
  L["ingest.window_merge_ms"] = {t.total_ms("ingest/SlidingWindow::merged") / epochs, "ms",
                                 "per epoch"};
  L["ingest.window_rows"] = {static_cast<double>(traced.window_rows), "count", "last epoch"};
  L["ingest.rows_evicted"] = {static_cast<double>(traced.rows_evicted), "count", "per pass"};
  L["ingest.publish_ms"] = {t.total_ms("ingest/publish_snapshot") / epochs, "ms", "per epoch"};
  L["ingest.publish_failures"] = {static_cast<double>(traced.publish_failures), "count", ""};
  L["serve.reload_ms"] = {t.total_ms("serve/SnapshotManager::load_and_install") / epochs, "ms",
                          "per epoch"};
  L["serve.reloads"] = {static_cast<double>(reloads), "count", "first untraced pass"};
  L["serve.reload_failures"] = {static_cast<double>(server_stats.reload_failures), "count",
                                "every pass"};
  L["snapshot.build_ms"] = {t.total_ms("serve/build_snapshot") / epochs, "ms", "per epoch"};
  L["ingest.tolerance_ms"] = {t.total_ms("pipeline/compute_spoof_tolerance") / epochs, "ms",
                              "per epoch"};
  L["ingest.funnel_ns_per_block"] = {
      t.total_ms("pipeline/parallel_infer") * 1e6 / static_cast<double>(traced.funnel_rows), "ns",
      ""};
  L["ingest.analytics_build_ms"] = {t.total_ms("analytics/build_analytics") / epochs, "ms",
                                    "per epoch"};

  // The daemon's own stage timers, from the untraced pass.
  static const std::pair<const char*, const char*> kDaemonTimers[] = {
      {"ingest.daemon.ingest_us", "ingest.ingest_us"},
      {"ingest.daemon.merge_us", "ingest.merge_us"},
      {"ingest.daemon.tolerance_us", "ingest.tolerance_us"},
      {"ingest.daemon.funnel_us", "ingest.funnel_us"},
      {"ingest.daemon.snapshot_build_us", "ingest.snapshot.build_us"},
      {"ingest.daemon.analytics_build_us", "ingest.analytics.build_us"},
      {"ingest.daemon.publish_us", "ingest.publish_us"}};
  for (const auto& [name, timer_name] : kDaemonTimers) {
    const obs::TimingHistogram* timer = daemon_metrics.find_timer(timer_name);
    const bool fired = timer != nullptr && timer->count() > 0;
    L[name] = {fired ? static_cast<double>(timer->total_us()) / static_cast<double>(timer->count())
                     : 0.0,
               "us", fired ? "mean of " + std::to_string(timer->count()) : "never fired"};
  }

  // Codec and index costs on the final published epoch.
  const auto parsed = serve::parse_snapshot(final_bytes);
  sheet.check(parsed.ok(), "ledger: final live epoch does not parse");
  if (parsed.ok()) {
    const serve::TelescopeSnapshot& snapshot = parsed.value();
    L["snapshot.encode_ms"] = {median_ms_of(5, [&] { (void)serve::serialize_snapshot(snapshot); }),
                               "ms", "median of 5"};
    L["snapshot.parse_ms"] = {median_ms_of(5, [&] { (void)serve::parse_snapshot(final_bytes); }),
                              "ms", "median of 5"};
    L["index.build_ms"] = {
        median_ms_of(5, [&] { (void)serve::TelescopeIndex(serve::TelescopeSnapshot(snapshot)); }),
        "ms", "median of 5, includes the snapshot copy"};
    L["index.memory_bytes"] = {
        static_cast<double>(serve::TelescopeIndex(serve::TelescopeSnapshot(snapshot)).memory_bytes()),
        "B", ""};
  }
  L["snapshot.bytes"] = {static_cast<double>(final_bytes.size()), "B", "final epoch"};
  sheet.counters["ledger.live.untraced_pass_ms"] = part.untraced_ms;
  sheet.counters["ledger.live.traced_pass_ms"] = part.traced_ms;
  return part;
}

}  // namespace perfbench
