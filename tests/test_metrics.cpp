// The observability layer: registry semantics, deterministic merges and
// JSON snapshots, and the contract the pipeline instrumentation must hold —
// recorded funnel counters exactly equal the returned FunnelCounts on the
// serial and every parallel path, and collect totals are invariant under
// worker/shard partitioning.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/collector.hpp"
#include "pipeline/inference.hpp"
#include "pipeline/parallel.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"
#include "sim/simulation.hpp"

namespace mtscope {
namespace {

using obs::MetricsRegistry;
using obs::StageTimer;
using obs::TimingHistogram;

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON well-formedness checker (objects, arrays,
// strings, integers) — enough to prove a snapshot parses without pulling in
// a JSON dependency.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    return number();
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
  }

  [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Registry primitives.

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry r;
  obs::Counter& c1 = r.counter("collect.flows");
  c1.add(3);
  obs::Counter& c2 = r.counter("collect.flows");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);

  obs::Gauge& g = r.gauge("depth");
  g.set(4);
  EXPECT_EQ(&g, &r.gauge("depth"));
  EXPECT_EQ(r.gauge("depth").value(), 4);

  TimingHistogram& t = r.timer("stage_us");
  t.record_us(10);
  EXPECT_EQ(&t, &r.timer("stage_us"));
  EXPECT_EQ(r.timer("stage_us").count(), 1u);

  EXPECT_EQ(r.size(), 3u);
  EXPECT_FALSE(r.empty());
}

TEST(MetricsRegistry, LookupOfMissingMetrics) {
  MetricsRegistry r;
  EXPECT_EQ(r.find_counter("nope"), nullptr);
  EXPECT_EQ(r.find_gauge("nope"), nullptr);
  EXPECT_EQ(r.find_timer("nope"), nullptr);
  EXPECT_EQ(r.counter_value("nope"), 0u);
  EXPECT_TRUE(r.empty());

  r.counter("yes").add(7);
  ASSERT_NE(r.find_counter("yes"), nullptr);
  EXPECT_EQ(r.counter_value("yes"), 7u);
}

TEST(TimingHistogramTest, RecordsAndMerges) {
  TimingHistogram a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min_us(), 0u);
  EXPECT_EQ(a.mean_us(), 0u);
  EXPECT_EQ(a.quantile_us(0.5), 0u);

  a.record_us(100);
  a.record_us(300);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.total_us(), 400u);
  EXPECT_EQ(a.min_us(), 100u);
  EXPECT_EQ(a.max_us(), 300u);
  EXPECT_EQ(a.mean_us(), 200u);
  // log2 buckets: 100us -> bucket 6 (lower bound 64), 300us -> bucket 8.
  EXPECT_EQ(a.quantile_us(0.5), 64u);
  EXPECT_EQ(a.quantile_us(0.99), 256u);

  TimingHistogram b;
  b.record_us(10);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.total_us(), 410u);
  EXPECT_EQ(a.min_us(), 10u);
  EXPECT_EQ(a.max_us(), 300u);

  TimingHistogram empty;
  a.merge(empty);  // merging an empty histogram is a no-op
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min_us(), 10u);
}

TEST(StageTimerTest, NullRegistryIsANoOp) {
  StageTimer timer(nullptr, "never");
  timer.stop();  // must not crash; nothing to record into
}

TEST(StageTimerTest, RecordsOneSamplePerScope) {
  MetricsRegistry r;
  {
    StageTimer timer(&r, "scoped_us");
  }
  {
    StageTimer timer(&r, "scoped_us");
    timer.stop();
    timer.stop();  // idempotent
  }
  ASSERT_NE(r.find_timer("scoped_us"), nullptr);
  EXPECT_EQ(r.find_timer("scoped_us")->count(), 2u);
}

// ---------------------------------------------------------------------------
// Merge determinism.

TEST(MetricsRegistry, MergeSemanticsPerKind) {
  MetricsRegistry a;
  a.counter("c").add(2);
  a.gauge("g").set(5);
  a.timer("t_us").record_us(100);

  MetricsRegistry b;
  b.counter("c").add(3);
  b.counter("only_b").add(1);
  b.gauge("g").set(3);
  b.timer("t_us").record_us(200);

  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 5u);        // counters add
  EXPECT_EQ(a.counter_value("only_b"), 1u);   // missing names materialise
  EXPECT_EQ(a.find_gauge("g")->value(), 5);   // gauges keep the max
  EXPECT_EQ(a.find_timer("t_us")->count(), 2u);  // timers pool samples
  EXPECT_EQ(a.find_timer("t_us")->total_us(), 300u);
}

TEST(MetricsRegistry, MergeTotalsIndependentOfPartition) {
  // The same 60 events split 2 ways vs 3 ways must snapshot identically.
  const auto record = [](MetricsRegistry& r, int events) {
    for (int i = 0; i < events; ++i) r.counter("events").add();
    r.gauge("width").set(7);  // same level in every partition
  };

  MetricsRegistry two_a, two_b;
  record(two_a, 45);
  record(two_b, 15);
  MetricsRegistry two;
  two.merge(two_a);
  two.merge(two_b);

  MetricsRegistry three;
  for (const int part : {20, 20, 20}) {
    MetricsRegistry local;
    record(local, part);
    three.merge(local);
  }

  EXPECT_EQ(two.counter_value("events"), 60u);
  EXPECT_EQ(two.to_json(), three.to_json());
}

// ---------------------------------------------------------------------------
// JSON snapshots.

TEST(MetricsJson, GoldenSnapshot) {
  MetricsRegistry r;
  r.counter("alpha").add(3);
  r.counter("beta").add(1);
  r.gauge("depth").set(4);
  r.timer("stage_us").record_us(100);
  r.timer("stage_us").record_us(300);

  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"alpha\": 3,\n"
      "    \"beta\": 1\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"depth\": 4\n"
      "  },\n"
      "  \"timers\": {\n"
      "    \"stage_us\": {\"count\": 2, \"total\": 400, \"min\": 100, \"max\": 300, "
      "\"mean\": 200, \"p50\": 64, \"p99\": 256}\n"
      "  }\n"
      "}";
  EXPECT_EQ(r.to_json(), expected);
  EXPECT_TRUE(JsonChecker(expected).valid());
}

TEST(MetricsJson, EmptyRegistryKeepsSchema) {
  const std::string json = MetricsRegistry{}.to_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
}

TEST(MetricsJson, EscapesAwkwardNames) {
  MetricsRegistry r;
  r.counter("weird\"name\\with\ncontrol").add(1);
  const std::string json = r.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\\\"name\\\\with\\u000a"), std::string::npos);
}

TEST(MetricsJson, IndentShiftsNestedLinesOnly) {
  MetricsRegistry r;
  r.counter("a").add(1);
  const std::string json = r.to_json(2);
  EXPECT_EQ(json.front(), '{');                       // first line unshifted
  EXPECT_NE(json.find("\n    \"counters\""), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "  }");     // closing brace shifted
}

// ---------------------------------------------------------------------------
// Pipeline instrumentation contracts.

struct PipelineFixture {
  sim::Simulation simulation{sim::SimConfig::tiny(101)};
  std::vector<std::size_t> ixps = pipeline::all_ixps(simulation);
  std::vector<int> days{0, 1};
  pipeline::VantageStats stats = pipeline::collect_stats(simulation, ixps, days);
  routing::SpecialPurposeRegistry registry = routing::SpecialPurposeRegistry::standard();
  pipeline::PipelineConfig config = [this] {
    pipeline::PipelineConfig c;
    c.volume_scale = simulation.config().volume_scale;
    return c;
  }();
  pipeline::InferenceEngine engine{config, simulation.plan().rib(), registry};
};

const PipelineFixture& fixture() {
  static const PipelineFixture shared;
  return shared;
}

void expect_funnel_counters(const MetricsRegistry& m, const pipeline::FunnelCounts& f) {
  EXPECT_EQ(m.counter_value(pipeline::funnel_metric::kSeen), f.seen);
  EXPECT_EQ(m.counter_value(pipeline::funnel_metric::kAfterTcp), f.after_tcp);
  EXPECT_EQ(m.counter_value(pipeline::funnel_metric::kAfterSize), f.after_size);
  EXPECT_EQ(m.counter_value(pipeline::funnel_metric::kAfterSource), f.after_source);
  EXPECT_EQ(m.counter_value(pipeline::funnel_metric::kAfterReserved), f.after_reserved);
  EXPECT_EQ(m.counter_value(pipeline::funnel_metric::kAfterRouted), f.after_routed);
  EXPECT_EQ(m.counter_value(pipeline::funnel_metric::kAfterVolume), f.after_volume);
  EXPECT_EQ(m.counter_value("funnel.eliminated.tcp"), f.seen - f.after_tcp);
  EXPECT_EQ(m.counter_value("funnel.eliminated.volume"), f.after_routed - f.after_volume);
}

TEST(InferMetrics, SerialCountersEqualReturnedFunnel) {
  const PipelineFixture& fx = fixture();
  MetricsRegistry metrics;
  const auto result = fx.engine.infer(fx.stats, &metrics);

  // The instrumented run must not disturb the result itself.
  const auto plain = fx.engine.infer(fx.stats);
  EXPECT_EQ(result.funnel, plain.funnel);
  EXPECT_TRUE(result.dark == plain.dark);

  expect_funnel_counters(metrics, result.funnel);
  EXPECT_EQ(metrics.counter_value("infer.dark"), result.dark.size());
  EXPECT_EQ(metrics.counter_value("infer.unclean"), result.unclean);
  EXPECT_EQ(metrics.counter_value("infer.gray"), result.gray);
  ASSERT_NE(metrics.find_timer("infer.total_us"), nullptr);
  EXPECT_EQ(metrics.find_timer("infer.total_us")->count(), 1u);
  ASSERT_NE(metrics.find_timer("infer.step.scan_us"), nullptr);
}

TEST(InferMetrics, ParallelCountersEqualSerialAcrossGrid) {
  const PipelineFixture& fx = fixture();
  const auto serial = fx.engine.infer(fx.stats);
  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    MetricsRegistry metrics;
    const auto result = pipeline::parallel_infer(fx.engine, fx.stats, threads, &metrics);
    EXPECT_EQ(result.funnel, serial.funnel) << threads << " threads";
    expect_funnel_counters(metrics, serial.funnel);
    EXPECT_EQ(metrics.counter_value("infer.dark"), serial.dark.size());
    EXPECT_EQ(metrics.find_gauge("parallel.infer.workers")->value(), threads);
  }
}

TEST(CollectMetrics, TotalsInvariantAcrossPartitions) {
  const PipelineFixture& fx = fixture();
  MetricsRegistry serial;
  pipeline::CollectOptions serial_options;
  serial_options.metrics = &serial;
  const auto serial_stats =
      pipeline::collect_stats(fx.simulation, fx.ixps, fx.days, serial_options);
  EXPECT_EQ(serial.counter_value("collect.flows"), serial_stats.flows_ingested());
  EXPECT_EQ(serial.counter_value("collect.datasets"), fx.ixps.size() * fx.days.size());

  for (const auto& [threads, shards] : std::vector<std::pair<unsigned, unsigned>>{
           {2, 4}, {3, 5}, {4, 16}}) {
    MetricsRegistry metrics;
    pipeline::CollectOptions options{threads, shards, &metrics};
    const auto stats = pipeline::collect_stats(fx.simulation, fx.ixps, fx.days, options);
    EXPECT_EQ(stats.flows_ingested(), serial_stats.flows_ingested());
    // The shared ingest-health counters never depend on the partition.
    for (const std::string_view name :
         {"collect.flows", "collect.datasets", "collect.parse_drops"}) {
      EXPECT_EQ(metrics.counter_value(name), serial.counter_value(name))
          << name << " @ " << threads << "x" << shards;
    }
    for (const std::size_t ixp : fx.ixps) {
      const std::string name =
          "collect.vantage." + fx.simulation.ixps()[ixp].spec().code + ".flows";
      EXPECT_EQ(metrics.counter_value(name), serial.counter_value(name)) << name;
    }
    EXPECT_EQ(metrics.find_gauge("parallel.collect.workers")->value(), threads);
    EXPECT_EQ(metrics.find_gauge("parallel.collect.shards")->value(), shards);
    ASSERT_NE(metrics.find_gauge("parallel.collect.merge.depth"), nullptr);
    ASSERT_NE(metrics.find_timer("parallel.collect.merge_us"), nullptr);
    // Every shard-balance gauge exists and they sum to the block universe
    // touched by the workers (>= the merged map size; shards overlap keys).
    std::int64_t shard_total = 0;
    for (unsigned s = 0; s < shards; ++s) {
      const auto* gauge =
          metrics.find_gauge("parallel.collect.shard." + std::to_string(s) + ".blocks");
      ASSERT_NE(gauge, nullptr);
      shard_total += gauge->value();
    }
    EXPECT_GE(shard_total, static_cast<std::int64_t>(stats.blocks().size()));
  }
}

TEST(CollectMetrics, StoreGaugesDescribeTheFinalStore) {
  // Both collectors record the layout of the store they return —
  // collect.store.* gauges must match the returned object exactly, on the
  // serial path and on every parallel partition.
  const PipelineFixture& fx = fixture();
  for (const auto& [threads, shards] :
       std::vector<std::pair<unsigned, unsigned>>{{1, 1}, {2, 4}, {4, 16}}) {
    MetricsRegistry metrics;
    pipeline::CollectOptions options{threads, shards, &metrics};
    const auto stats = pipeline::collect_stats(fx.simulation, fx.ixps, fx.days, options);
    const pipeline::BlockStatsStore& store = stats.blocks();
    const std::string tag = std::to_string(threads) + "x" + std::to_string(shards);

    const auto* blocks = metrics.find_gauge("collect.store.blocks");
    ASSERT_NE(blocks, nullptr) << tag;
    EXPECT_EQ(blocks->value(), static_cast<std::int64_t>(store.size())) << tag;

    const auto* bytes = metrics.find_gauge("collect.store.bytes");
    ASSERT_NE(bytes, nullptr) << tag;
    EXPECT_EQ(bytes->value(), static_cast<std::int64_t>(store.memory_bytes())) << tag;

    const auto* load = metrics.find_gauge("collect.store.load_factor");
    ASSERT_NE(load, nullptr) << tag;
    EXPECT_EQ(load->value(), static_cast<std::int64_t>(store.load_factor() * 100.0)) << tag;
    EXPECT_GT(load->value(), 0) << tag;
    EXPECT_LE(load->value(), 87) << tag;  // 7/8 max load

    const auto* spills = metrics.find_gauge("collect.store.arena_spills");
    ASSERT_NE(spills, nullptr) << tag;
    EXPECT_EQ(spills->value(), static_cast<std::int64_t>(store.arena_spills())) << tag;
  }
}

TEST(CollectMetrics, SnapshotOfFullPipelineParsesAsJson) {
  const PipelineFixture& fx = fixture();
  MetricsRegistry metrics;
  pipeline::CollectOptions options{2, 4, &metrics};
  const auto stats = pipeline::collect_stats(fx.simulation, fx.ixps, fx.days, options);
  (void)pipeline::parallel_infer(fx.engine, stats, 2, &metrics);
  EXPECT_TRUE(JsonChecker(metrics.to_json()).valid());
}

// ---------------------------------------------------------------------------
// The serve counting contract (DESIGN.md §12) as exported through the
// registry: serve.server.queries counts every reply produced — valid
// verdicts, invalid-line echoes, invalid MTBIN frames, AND the one reply
// an overlong line gets before the kill (the pre-fix code skipped that
// bump); serve.server.invalid counts the malformed subset;
// serve.server.drops counts only connection-killing violations.

TEST(ServeMetrics, CountingContractAcrossBothProtocols) {
  serve::TelescopeSnapshot snap;
  snap.meta.seed = 3;
  snap.meta.created_unix_s = 1'700'000'000;
  snap.meta.source = "metrics contract";
  snap.prefixes.push_back(serve::PrefixEntry{0x0a000000u, 65001, 8});
  snap.blocks.push_back(serve::BlockEntry::make(
      net::Block24::containing(net::Ipv4Addr::from_octets(10, 0, 0, 0)),
      serve::BlockClass::kDark, 0));
  snap.dark_count = 1;
  const std::string path = ::testing::TempDir() + "metrics_contract.snap";
  ASSERT_TRUE(serve::write_snapshot_file(snap, path).ok());

  MetricsRegistry metrics;
  serve::ServerConfig config;
  config.snapshot_path = path;
  config.port = 0;
  config.max_request_bytes = 64;
  serve::QueryServer server(std::move(config), &metrics);
  ASSERT_TRUE(server.start().ok());
  std::thread runner([&server] { server.run(); });

  const auto talk = [&server](const std::string& payload, std::size_t reply_bytes) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(payload.size()));
    ::shutdown(fd, SHUT_WR);
    std::string got;
    char chunk[4096];
    for (ssize_t n; (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
      got.append(chunk, static_cast<std::size_t>(n));
    }
    EXPECT_GE(got.size(), reply_bytes);
    ::close(fd);
  };

  // Line client: 2 verdicts + 1 invalid line = 3 queries, 1 invalid.
  talk("10.0.0.1\n8.8.8.8\nnot-an-ip\n", 3);
  // Overlong line client: 1 query, 1 invalid, 1 drop.
  talk(std::string(80, 'x') + "\n", 1);
  // Binary client: preamble + 2 valid lookups + 1 corrupted frame
  // = 3 queries, 1 invalid, 0 drops.
  {
    std::string payload{serve::wire::kPreamble};
    serve::wire::Request request;
    request.addr = net::Ipv4Addr::from_octets(10, 0, 0, 9);
    serve::wire::append_request(payload, request);
    std::string corrupt;
    serve::wire::append_request(corrupt, request);
    corrupt[6] = static_cast<char>(corrupt[6] ^ 0x10);
    payload += corrupt;
    serve::wire::append_request(payload, request);
    talk(payload, 3 * serve::wire::kResponseSize);
  }

  server.request_stop();
  runner.join();

  EXPECT_EQ(metrics.counter_value("serve.server.queries"), 7u);
  EXPECT_EQ(metrics.counter_value("serve.server.invalid"), 3u);
  EXPECT_EQ(metrics.counter_value("serve.server.drops"), 1u);
  EXPECT_EQ(metrics.counter_value("serve.server.connections"), 3u);
  const auto* timer = metrics.find_timer("serve.server.request_us");
  ASSERT_NE(timer, nullptr);
  // Every produced reply is timed — valid or invalid, line or frame —
  // except the overlong kill, which never reaches the request path.
  EXPECT_EQ(timer->count(), 6u);
}

}  // namespace
}  // namespace mtscope
