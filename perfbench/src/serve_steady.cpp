// serve-steady: a fixed full-scale snapshot with an analytics section,
// built in set-up, served by one reactor with no reloads.  Byte-verified
// closed-loop pipelined clients send line lookups, MTBIN lookups + count-in
// and line analytics verbs; then an open-loop loadgen runs at one fixed rate
// per protocol, below saturation.  pipeline/ingest do no work here.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "obs/metrics.hpp"
#include "pipeline/collector.hpp"
#include "serve/analytics_format.hpp"
#include "serve/loadgen.hpp"
#include "serve/telescope_index.hpp"
#include "serve/wire.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mtscope;

namespace {

constexpr std::size_t kLookupBatch = 512;  // pipelined requests per round trip
constexpr std::size_t kVerbBatch = 8;
constexpr int kScriptBatches = 48;         // distinct batches per client, cycled
constexpr int kRounds = 10;                 // interleaved closed-loop rounds per kind
constexpr int kOpenSteps = 4;               // open-loop steps per protocol, same rate

/// Closed-loop clients: each is one thread with one connection, and load
/// threads + connections stay within nproc.
int closed_clients() { return static_cast<int>(std::clamp(load_budget() / 2, 1u, 2u)); }

/// One client's conversation, precomputed: request bytes per batch and the
/// exact reply bytes the server must send back.
struct Script {
  bool binary = false;
  std::size_t queries_per_batch = 0;
  std::vector<std::string> requests;
  std::vector<std::string> expected;
};

/// Even probes hit a classified block, odd probes are uniform (mostly
/// misses) — the mix bench/micro_serve_net uses.
net::Ipv4Addr probe(const serve::TelescopeIndex& index, util::Rng& rng, std::size_t i) {
  const auto& blocks = index.snapshot().blocks;
  if (!blocks.empty() && (i & 1u) == 0) {
    const auto& entry = blocks[static_cast<std::size_t>(rng.uniform(blocks.size()))];
    return net::Ipv4Addr((entry.block_index() << 8) |
                         static_cast<std::uint32_t>(rng.uniform(256)));
  }
  return net::Ipv4Addr(static_cast<std::uint32_t>(rng.uniform(std::uint64_t{1} << 32)));
}

Script line_script(const serve::TelescopeIndex& index, std::uint64_t seed) {
  util::Rng rng(seed);
  Script script;
  script.queries_per_batch = kLookupBatch;
  for (int b = 0; b < kScriptBatches; ++b) {
    std::string request;
    std::string expected;
    for (std::size_t i = 0; i < kLookupBatch; ++i) {
      const net::Ipv4Addr addr = probe(index, rng, i);
      request += addr.to_string();
      request += '\n';
      expected += serve::format_verdict(addr, index.lookup(addr));
      expected += '\n';
    }
    script.requests.push_back(std::move(request));
    script.expected.push_back(std::move(expected));
  }
  return script;
}

/// MTBIN: seven lookups to one count-in over a /16../24 around a classified
/// block.
Script binary_script(const serve::TelescopeIndex& index, std::uint64_t seed) {
  util::Rng rng(seed);
  Script script;
  script.binary = true;
  script.queries_per_batch = kLookupBatch;
  for (int b = 0; b < kScriptBatches; ++b) {
    std::string request;
    std::string expected;
    for (std::size_t i = 0; i < kLookupBatch; ++i) {
      serve::wire::Request frame;
      frame.addr = probe(index, rng, i);
      if (i % 8 == 7) {
        frame.verb = serve::wire::Verb::kCountIn;
        frame.plen = static_cast<std::uint8_t>(16 + rng.uniform(9));
        const auto prefix = net::Prefix::canonical(frame.addr, frame.plen);
        serve::wire::append_response(
            expected,
            serve::wire::make_count_response(prefix.base(), frame.plen, index.count_in(prefix)));
      } else {
        serve::wire::append_response(
            expected, serve::wire::make_verdict_response(frame.addr, index.lookup(frame.addr)));
      }
      serve::wire::append_request(request, frame);
    }
    script.requests.push_back(std::move(request));
    script.expected.push_back(std::move(expected));
  }
  return script;
}

/// The analytics verbs: top ports of a /16 around a classified block,
/// outages, and the top scanners.
Script verb_script(const serve::TelescopeIndex& index, std::uint64_t seed) {
  util::Rng rng(seed);
  Script script;
  script.queries_per_batch = kVerbBatch;
  for (int b = 0; b < kScriptBatches; ++b) {
    std::string request;
    std::string expected;
    for (std::size_t i = 0; i < kVerbBatch; ++i) {
      std::string line;
      switch (i % 4) {
        case 0:
        case 1: {
          const net::Ipv4Addr addr = probe(index, rng, 0);
          line = "top-ports " + net::Prefix::canonical(addr, 16).to_string();
          break;
        }
        case 2:
          line = "outages";
          break;
        default:
          line = "scanners " + std::to_string(1 + rng.uniform(10));
          break;
      }
      request += line;
      request += '\n';
      expected += serve::answer_analytics_query(index, line);
      expected += '\n';
    }
    script.requests.push_back(std::move(request));
    script.expected.push_back(std::move(expected));
  }
  return script;
}

/// Set-up products: the snapshot file, the local oracle index, the running
/// server and every client's script.
struct ServeRig {
  std::string path;
  std::shared_ptr<const serve::TelescopeIndex> index;
  std::vector<Script> line;
  std::vector<Script> binary;
  std::vector<Script> verbs;
  StoreCounts store;
  std::uint64_t snapshot_bytes = 0;
  RunningServer server;
  ReadRate line_rate;  // open-loop rates, measured against the running server
  ReadRate binary_rate;
};

/// The batch build runs in a child process, as `mtscope infer` and
/// `mtscope serve` do: its heap (~0.5 GB at full scale) never lands in the
/// serving process, whose memory is what this workload reports.  Returns
/// the build's store counts.
StoreCounts build_in_child(const Options& options, const std::string& path) {
  int channel[2];
  if (::pipe(channel) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t child = ::fork();
  if (child < 0) throw std::runtime_error("fork failed");
  if (child == 0) {
    ::close(channel[0]);
    int status = 1;
    try {
      const sim::Simulation simulation(universe(options));
      const std::vector<int> days{first_day(options)};
      const unsigned threads = pipeline_threads();
      const BuildResult build =
          build_map(simulation, pipeline::all_ixps(simulation), days, threads,
                    bench_meta(threads, 1, "perfbench serve-steady"));
      if (serve::write_snapshot_file(build.snapshot, path).ok() &&
          ::write(channel[1], &build.store, sizeof(build.store)) ==
              static_cast<ssize_t>(sizeof(build.store))) {
        status = 0;
      }
    } catch (...) {
    }
    ::_exit(status);
  }
  ::close(channel[1]);
  StoreCounts store;
  const auto got = ::read(channel[0], &store, sizeof(store));
  ::close(channel[0]);
  int status = 0;
  ::waitpid(child, &status, 0);
  if (got != static_cast<ssize_t>(sizeof(store)) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("snapshot build in the child process failed");
  }
  return store;
}

/// Builds and loads the snapshot, makes every client's script, starts the
/// server.  Must run while this process has no other threads (it forks).
void set_up(const Options& options, ServeRig& rig, obs::MetricsRegistry* server_metrics) {
  rig.path = options.work_dir + "/serve.snap";
  rig.store = build_in_child(options, rig.path);
  auto loaded = serve::read_snapshot_file(rig.path);
  if (!loaded.ok()) throw std::runtime_error(loaded.error().to_string());
  rig.snapshot_bytes = serve::serialize_snapshot(loaded.value()).size();
  rig.index = std::make_shared<const serve::TelescopeIndex>(std::move(loaded).value());
  rig.line.clear();
  rig.binary.clear();
  rig.verbs.clear();
  for (int c = 0; c < closed_clients(); ++c) {
    const std::uint64_t seed = options.seed * 1000 + static_cast<std::uint64_t>(c);
    rig.line.push_back(line_script(*rig.index, seed));
    rig.binary.push_back(binary_script(*rig.index, seed));
    rig.verbs.push_back(verb_script(*rig.index, seed));
  }
  if (options.fault == "reply") rig.line[0].expected[0][0] ^= 0x01;

  serve::ServerConfig config;
  config.snapshot_path = rig.path;
  config.reactors = 1;
  config.max_conns = 16;
  config.max_pending_bytes = 4 * 1024 * 1024;
  const auto started = rig.server.start(config, server_metrics, cpu_for(0));
  if (!started.ok()) throw std::runtime_error(started.error().to_string());
  const ScopedAffinity pinned(cpu_for(2));  // where the open loop will run
  for (auto [proto, rate] : {std::pair{serve::WireProtocol::kLine, &rig.line_rate},
                             std::pair{serve::WireProtocol::kBinary, &rig.binary_rate}}) {
    const auto read = measure_read_rate(rig.server.port(), proto, options.read_share, options.seed);
    if (!read.ok()) throw std::runtime_error(read.error().to_string());
    *rate = read.value();
  }
}

struct Phase {
  std::vector<double> batch_us;   // round trip of every pipelined batch
  std::uint64_t queries = 0;
  std::uint64_t bad_queries = 0;  // in batches whose reply bytes differed
  int failed_clients = 0;
  double wall_s = 0.0;
  std::uint64_t root = Tracer::kNone;  // the phase's span when traced
  [[nodiscard]] double qps() const { return wall_s <= 0.0 ? 0.0 : queries / wall_s; }
};

/// Closed loop: every client sends one pipelined batch, reads the whole
/// reply, checks it byte for byte, and only then sends the next.
Phase closed_loop(std::uint16_t port, const std::vector<Script>& scripts, double seconds,
                  Tracer* tracer = nullptr) {
  Phase phase;
  std::vector<Phase> per_client(scripts.size());
  Scope root(tracer, "bench", "serve-steady closed loop");
  phase.root = root.id();
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    clients.emplace_back([&, c] {
      const ScopedAffinity pinned(cpu_for(1 + static_cast<int>(c)));
      if (tracer != nullptr) tracer->adopt(root.id());
      const Script& script = scripts[c];
      Phase& mine = per_client[c];
      const int fd = connect_loopback(port);
      if (fd < 0 || (script.binary && !send_all(fd, std::string(serve::wire::kPreamble)))) {
        mine.failed_clients = 1;
        if (fd >= 0) ::close(fd);
        return;
      }
      std::string reply;
      for (std::size_t b = 0; now_s() < deadline; ++b) {
        const std::size_t at = b % script.requests.size();
        Scope trip(tracer, "serve", "QueryServer round trip");
        const double sent_s = now_s();
        if (!send_all(fd, script.requests[at]) ||
            !recv_exact(fd, script.expected[at].size(), reply)) {
          mine.failed_clients = 1;
          break;
        }
        mine.batch_us.push_back(1e6 * (now_s() - sent_s));
        trip.end();
        mine.queries += script.queries_per_batch;
        if (reply != script.expected[at]) mine.bad_queries += script.queries_per_batch;
      }
      ::close(fd);
    });
  }
  for (auto& thread : clients) thread.join();
  phase.wall_s = now_s() - t0;
  root.end();
  for (const Phase& p : per_client) {
    phase.batch_us.insert(phase.batch_us.end(), p.batch_us.begin(), p.batch_us.end());
    phase.queries += p.queries;
    phase.bad_queries += p.bad_queries;
    phase.failed_clients += p.failed_clients;
  }
  return phase;
}

void check_phase(const Phase& phase, const char* what, Sheet& sheet) {
  sheet.attempted += phase.queries;
  sheet.failed += phase.bad_queries;
  if (phase.bad_queries > 0) {
    sheet.failures.push_back(std::string("serve-steady: ") + what + " replies differ from the oracle");
  }
  sheet.check(phase.failed_clients == 0, std::string("serve-steady: ") + what + " client failed");
  sheet.check(phase.queries > 0, std::string("serve-steady: ") + what + " answered nothing");
}

/// `steps` open-loop steps at `rate` on one connection, `seconds` in all.
serve::LoadgenConfig open_loop(std::uint16_t port, serve::WireProtocol proto, std::uint64_t rate,
                               double seconds, int steps, std::uint64_t seed) {
  serve::LoadgenConfig lg;
  lg.port = port;
  lg.mode = serve::LoadMode::kOpen;
  lg.proto = proto;
  lg.connections = 1;
  lg.steps.assign(static_cast<std::size_t>(steps), rate);
  lg.warmup_ms = 100;
  lg.cooldown_ms = 50;
  lg.measure_ms =
      std::max(100, static_cast<int>(seconds * 1e3 / steps) - lg.warmup_ms - lg.cooldown_ms);
  lg.seed = seed;
  return lg;
}

std::vector<serve::StepResult> run_open_loop(const serve::LoadgenConfig& config,
                                             const char* what, Sheet& sheet) {
  // The generator's sender and receiver threads inherit this mask.
  std::vector<int> cpus = cpu_for(2);
  const std::vector<int> second = cpu_for(3);
  cpus.insert(cpus.end(), second.begin(), second.end());
  const ScopedAffinity pinned(cpus);
  const auto result = serve::run_loadgen(config);
  sheet.check(result.ok() && result.value().size() == config.steps.size(),
              std::string("serve-steady: ") + what + " loadgen failed");
  if (!result.ok()) return {};
  for (const serve::StepResult& step : result.value()) {
    sheet.attempted += step.sent;
    sheet.check(step.errors == 0, std::string("serve-steady: ") + what + " loadgen errors",
                step.errors);
  }
  return result.value();
}

/// Per-protocol open-loop summary over its steps.
struct OpenLoop {
  double p50_us = 0.0;  // mean of the step medians
  double p99_us = 0.0;  // median of the step p99s
  serve::StepResult total;  // counts summed over steps
};

OpenLoop summarize_steps(const std::vector<serve::StepResult>& steps) {
  OpenLoop out;
  std::vector<double> p99;
  for (const serve::StepResult& step : steps) {
    out.p50_us += static_cast<double>(step.p50_us) / static_cast<double>(steps.size());
    p99.push_back(static_cast<double>(step.p99_us));
    out.total.sent += step.sent;
    out.total.received += step.received;
    out.total.errors += step.errors;
    out.total.samples += step.samples;
    out.total.offered_qps += step.offered_qps / static_cast<double>(steps.size());
    out.total.mean_us += step.mean_us / static_cast<double>(steps.size());
  }
  out.p99_us = median(p99);
  return out;
}

}  // namespace

void run_serve_steady(const Options& options, Sheet& sheet) {
  record_common_params(options, sheet);
  const int clients = closed_clients();
  sheet.counters["param.reactors"] = 1;
  sheet.counters["param.days"] = 1;
  sheet.counters["param.closed_clients"] = clients;
  sheet.counters["param.lookup_batch"] = kLookupBatch;
  sheet.counters["param.verb_batch"] = kVerbBatch;
  sheet.counters["param.open_connections"] = 1;
  // closed loop: one thread + one connection per client; open loop: a
  // sender and a receiver thread on one connection
  sheet.counters["param.load_threads_plus_connections"] = std::max(2.0 * clients, 3.0);
  sheet.counters["param.closed_rounds"] = kRounds;

  std::vector<double> setup_s;
  auto rig = std::make_unique<ServeRig>();
  for (int rep = 0; rep < 3; ++rep) {
    rig.reset();
    release_free_heap();
    const double t0 = now_s();
    rig = std::make_unique<ServeRig>();
    set_up(options, *rig, nullptr);
    (void)closed_loop(rig->server.port(), rig->line, 0.1);  // warm-up
    setup_s.push_back(now_s() - t0);
  }
  release_free_heap();
  sheet.counters["param.line_open_rate_qps"] = static_cast<double>(rig->line_rate.rate_qps);
  sheet.counters["param.binary_open_rate_qps"] = static_cast<double>(rig->binary_rate.rate_qps);
  sheet.counters["read.line_capacity_qps"] = rig->line_rate.capacity_qps;
  sheet.counters["read.binary_capacity_qps"] = rig->binary_rate.capacity_qps;

  RssSampler rss;
  rss.start();
  // Closed loops take 60% of the time, interleaved in rounds so a burst of
  // outside interference lands in one round of each kind, not in all of
  // one kind; each kind reports its median round.  The two open-loop
  // steps share the rest.
  const std::uint16_t port = rig->server.port();
  const double slice = options.seconds * 0.6 / (3.0 * kRounds);
  Phase line;
  Phase binary;
  Phase verbs;
  std::vector<double> line_qps;
  std::vector<double> binary_qps;
  std::vector<double> verbs_qps;
  for (int round = 0; round < kRounds; ++round) {
    for (auto [scripts, total, qps] : {std::tuple{&rig->line, &line, &line_qps},
                                       std::tuple{&rig->binary, &binary, &binary_qps},
                                       std::tuple{&rig->verbs, &verbs, &verbs_qps}}) {
      const Phase phase = closed_loop(port, *scripts, slice);
      qps->push_back(phase.qps());
      total->batch_us.insert(total->batch_us.end(), phase.batch_us.begin(),
                             phase.batch_us.end());
      total->queries += phase.queries;
      total->bad_queries += phase.bad_queries;
      total->failed_clients += phase.failed_clients;
    }
  }
  const double open_s = options.seconds * 0.2;
  const OpenLoop line_open = summarize_steps(run_open_loop(
      open_loop(port, serve::WireProtocol::kLine, rig->line_rate.rate_qps, open_s, kOpenSteps,
                options.seed),
      "line",
      sheet));
  const OpenLoop binary_open = summarize_steps(run_open_loop(
      open_loop(port, serve::WireProtocol::kBinary, rig->binary_rate.rate_qps, open_s, kOpenSteps,
                options.seed),
      "binary",
      sheet));
  rig->server.stop();
  const double peak_mb = rss.stop();

  check_phase(line, "line", sheet);
  check_phase(binary, "binary", sheet);
  check_phase(verbs, "verbs", sheet);
  const serve::ServerStats stats = rig->server.server().stats();
  sheet.check(stats.invalid == 0 && stats.drops == 0 && stats.reloads == 0,
              "serve-steady: server reported invalid requests, drops or reloads");

  for (const auto& [name, values] : {std::pair{"line_rounds_qps", &line_qps},
                                     std::pair{"binary_rounds_qps", &binary_qps},
                                     std::pair{"verbs_rounds_qps", &verbs_qps}}) {
    std::string text;
    for (const double v : *values) text += (text.empty() ? "" : ",") + std::to_string(v);
    sheet.params[name] = text;
  }
  const std::string rounds = "median of " + std::to_string(kRounds) + " rounds, ";
  sheet.metrics["setup_s"] = {median(setup_s), "s", "median of 3 set-ups"};
  sheet.metrics["line_qps"] = {median(line_qps), "queries/s",
                               rounds + std::to_string(line.queries) + " queries"};
  sheet.metrics["binary_qps"] = {median(binary_qps), "queries/s",
                                 rounds + std::to_string(binary.queries) + " queries"};
  sheet.metrics["verbs_qps"] = {median(verbs_qps), "queries/s",
                                rounds + std::to_string(verbs.queries) + " queries"};
  const auto latency = [](const OpenLoop& open, double value, const char* how) {
    return Metric{value, "us",
                  std::string(how) + " of " + std::to_string(kOpenSteps) + " steps, " +
                      std::to_string(open.total.samples) + " samples"};
  };
  sheet.metrics["line_p50_us"] = latency(line_open, line_open.p50_us, "mean");
  sheet.metrics["line_p99_us"] = latency(line_open, line_open.p99_us, "median");
  sheet.metrics["binary_p50_us"] = latency(binary_open, binary_open.p50_us, "mean");
  sheet.metrics["binary_p99_us"] = latency(binary_open, binary_open.p99_us, "median");
  sheet.metrics["peak_rss_mb"] = {peak_mb, "MB", "timed phase"};

  // One figure over the three request kinds, each weighing the same in
  // relative terms: a verb costs ~1000 lookups, so any mix by count would
  // measure the verbs alone.
  const double geomean = std::cbrt(sheet.metrics["line_qps"].value *
                                   sheet.metrics["binary_qps"].value *
                                   sheet.metrics["verbs_qps"].value);
  sheet.headline["setup_s"] = sheet.metrics["setup_s"];
  sheet.headline["throughput_per_s"] = {geomean, "1/s",
                                        "geometric mean of line, binary and verbs qps"};
  // A pipelined client's wait for one batch, per kind; the open-loop
  // percentiles above swing with the host's wake-up latency by more than
  // the bound, so they stay in the report only.
  const double line_rtt = median(line.batch_us);
  const double binary_rtt = median(binary.batch_us);
  const double verbs_rtt = median(verbs.batch_us);
  sheet.metrics["line_batch_us_p50"] = {line_rtt, "us", "closed-loop round trip, 512 lookups"};
  sheet.metrics["binary_batch_us_p50"] = {binary_rtt, "us", "closed-loop round trip, 512 frames"};
  sheet.metrics["verbs_batch_us_p50"] = {verbs_rtt, "us", "closed-loop round trip, 8 verbs"};
  sheet.headline["latency_ms"] = {std::cbrt(line_rtt * binary_rtt * verbs_rtt) / 1e3, "ms",
                                  "geometric mean of the median batch round trips"};
  sheet.headline["peak_rss_mb"] = sheet.metrics["peak_rss_mb"];

  rig->store.record(sheet, "build.");
  sheet.counters["snapshot.bytes"] = static_cast<double>(rig->snapshot_bytes);
  sheet.counters["snapshot.blocks"] = static_cast<double>(rig->index->size());
  sheet.counters["index.memory_bytes"] = static_cast<double>(rig->index->memory_bytes());
  sheet.counters["server.connections"] = static_cast<double>(stats.connections);
  sheet.counters["server.queries"] = static_cast<double>(stats.queries);
  sheet.counters["server.invalid"] = static_cast<double>(stats.invalid);
  sheet.counters["server.drops"] = static_cast<double>(stats.drops);
  sheet.counters["server.timeouts"] = static_cast<double>(stats.timeouts);
  sheet.counters["server.partial_flushes"] = static_cast<double>(stats.partial_flushes);
  for (const auto& [name, open] : {std::pair{"loadgen.line.", line_open},
                                   std::pair{"loadgen.binary.", binary_open}}) {
    const std::string prefix = name;
    const serve::StepResult& step = open.total;
    sheet.counters[prefix + "sent"] = static_cast<double>(step.sent);
    sheet.counters[prefix + "received"] = static_cast<double>(step.received);
    sheet.counters[prefix + "errors"] = static_cast<double>(step.errors);
    sheet.counters[prefix + "samples"] = static_cast<double>(step.samples);
    sheet.counters[prefix + "offered_qps"] = step.offered_qps;
    sheet.counters[prefix + "mean_us"] = step.mean_us;
  }
}

// ---------------------------------------------------------------------------
// Ledger: in-process costs of the index and both codecs on the served
// snapshot, then the socket path with the server's own request timer.

namespace {

/// Nanoseconds per call of `body(i)` over `n` calls, median of 3 passes.
template <typename Body>
double ns_per_call(std::size_t n, Body&& body) {
  std::vector<double> per_call;
  for (int pass = 0; pass < 3; ++pass) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) body(i);
    per_call.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
  }
  return median(per_call);
}

}  // namespace

LedgerPart ledger_serve_steady(const Options& options, Sheet& sheet) {
  obs::MetricsRegistry server_metrics;
  ServeRig rig;
  set_up(options, rig, &server_metrics);
  const serve::TelescopeIndex& index = *rig.index;
  auto& L = sheet.layers;

  // In-process: the index, the MTBIN codec, the line codec, the verbs.
  util::Rng rng(options.seed);
  constexpr std::size_t kProbes = 1 << 17;
  std::vector<net::Ipv4Addr> addrs;
  std::vector<std::optional<serve::TelescopeIndex::Verdict>> verdicts;
  std::vector<std::string> lines;
  std::string frames;
  for (std::size_t i = 0; i < kProbes; ++i) {
    addrs.push_back(probe(index, rng, i));
    verdicts.push_back(index.lookup(addrs.back()));
    lines.push_back(addrs.back().to_string());
    serve::wire::append_request(frames, {serve::wire::Verb::kLookup, 0, addrs.back()});
  }
  std::uint64_t sink = 0;
  L["serve.lookup_ns"] = {ns_per_call(kProbes, [&](std::size_t i) {
                            sink += index.lookup(addrs[i]).has_value();
                          }),
                          "ns", ""};
  std::vector<net::Prefix> prefixes;
  for (std::size_t i = 0; i < kProbes / 8; ++i) {
    prefixes.push_back(net::Prefix::canonical(addrs[i], static_cast<std::uint8_t>(16 + i % 9)));
  }
  L["serve.count_in_ns"] = {
      ns_per_call(prefixes.size(), [&](std::size_t i) { sink += index.count_in(prefixes[i]); }),
      "ns", ""};
  std::string out;
  const auto* frame_bytes = reinterpret_cast<const std::uint8_t*>(frames.data());
  L["serve.wire_ns_per_frame"] = {
      ns_per_call(kProbes,
                  [&](std::size_t i) {
                    if (out.size() > (1 << 16)) out.clear();
                    const auto request = serve::wire::decode_request(
                        {frame_bytes + i * serve::wire::kRequestSize, serve::wire::kRequestSize});
                    serve::wire::append_response(
                        out, serve::wire::make_verdict_response(request.value().addr, verdicts[i]));
                  }),
      "ns", "decode + make_verdict_response + append_response"};
  L["serve.line_ns_per_query"] = {
      ns_per_call(kProbes,
                  [&](std::size_t i) {
                    const auto addr = net::Ipv4Addr::parse(lines[i]);
                    sink += serve::format_verdict(*addr, verdicts[i]).size();
                  }),
      "ns", "Ipv4Addr::parse + format_verdict"};
  std::vector<std::string> verb_lines;
  for (const std::string& batch : rig.verbs[0].requests) {
    for (std::size_t at = 0; at < batch.size();) {
      const std::size_t nl = batch.find('\n', at);
      verb_lines.push_back(batch.substr(at, nl - at));
      at = nl + 1;
    }
  }
  L["serve.verb_us"] = {ns_per_call(verb_lines.size(),
                                    [&](std::size_t i) {
                                      sink += serve::answer_analytics_query(index, verb_lines[i])
                                                  .size();
                                    }) /
                            1e3,
                        "us", "answer_analytics_query, verb mix"};
  sheet.counters["ledger.serve.sink"] = static_cast<double>(sink % 1000);

  // Socket path against the instrumented server: one discarded warm-up
  // MTBIN closed loop (the reactor's buffers grow on first use), untraced
  // and traced MTBIN closed loops alternating, then line and one open-loop
  // step.
  const double slice = std::max(0.5, options.seconds / 10.0);
  const std::uint16_t port = rig.server.port();
  check_phase(closed_loop(port, rig.binary, slice / 4), "ledger warm-up", sheet);
  constexpr int kReps = 3;
  std::vector<double> binary_qps;
  std::vector<double> traced_qps;
  std::unique_ptr<Tracer> tracer;
  Phase traced;
  for (int rep = 0; rep < kReps; ++rep) {
    const Phase binary = closed_loop(port, rig.binary, slice / 2);
    check_phase(binary, "ledger binary", sheet);
    binary_qps.push_back(binary.qps());
    tracer = std::make_unique<Tracer>();
    traced = closed_loop(port, rig.binary, slice / 2, tracer.get());
    check_phase(traced, "ledger traced binary", sheet);
    traced_qps.push_back(traced.qps());
  }
  const double binary = median(binary_qps);
  const double traced_binary = median(traced_qps);
  const Phase line = closed_loop(port, rig.line, slice);
  check_phase(line, "ledger line", sheet);
  const OpenLoop open = summarize_steps(
      run_open_loop(open_loop(port, serve::WireProtocol::kBinary, rig.binary_rate.rate_qps, slice,
                              1, options.seed),
                    "ledger binary open loop", sheet));
  const serve::StepResult& step = open.total;
  rig.server.stop();
  const serve::ServerStats stats = rig.server.server().stats();

  const double in_process_ns = L["serve.wire_ns_per_frame"].value + L["serve.lookup_ns"].value;
  L["serve.socket_share"] = {1.0 - in_process_ns * binary / 1e9, "ratio",
                             "1 - in-process cost / per-query time, MTBIN closed loop"};
  // The server's request timer records whole microseconds per request, so
  // its quantiles read 0 for sub-microsecond lookups; it stays a counter,
  // and the per-request cost is read in process above.
  if (const obs::TimingHistogram* request_us = server_metrics.find_timer("serve.server.request_us")) {
    sheet.counters["ledger.serve.request_timer.count"] = static_cast<double>(request_us->count());
    sheet.counters["ledger.serve.request_timer.total_us"] =
        static_cast<double>(request_us->total_us());
    sheet.counters["ledger.serve.request_timer.max_us"] = static_cast<double>(request_us->max_us());
  }
  L["serve.partial_flushes"] = {static_cast<double>(stats.partial_flushes), "count", ""};
  L["serve.drops"] = {static_cast<double>(stats.drops), "count", ""};
  L["serve.invalid"] = {static_cast<double>(stats.invalid), "count", ""};
  L["loadgen.offered_over_target"] = {
      step.offered_qps / static_cast<double>(rig.binary_rate.rate_qps), "ratio", ""};
  L["loadgen.samples"] = {static_cast<double>(step.samples), "count", ""};
  sheet.counters["ledger.serve.binary_qps"] = binary;
  sheet.counters["ledger.serve.traced_binary_qps"] = traced_binary;
  sheet.counters["ledger.serve.line_qps"] = line.qps();

  LedgerPart part;
  part.summary = summarize(tracer->spans(), traced.root);  // the last traced loop
  part.traced_ms = traced_binary > 0.0 ? 1e3 / traced_binary : 0.0;
  part.untraced_ms = binary > 0.0 ? 1e3 / binary : 0.0;
  return part;
}

}  // namespace perfbench
