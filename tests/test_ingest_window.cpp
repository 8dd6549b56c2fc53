// The streaming ingest tentpole, proven differentially (DESIGN.md §13):
//
//  * the differential grid — seeds x funnel threads x window lengths x
//    eviction schedules — drives a SlidingWindow day by day and, at every
//    advance step, demands the incremental window's stats equal the
//    per-record referee (tests/reference_ingest.hpp) over the retained
//    days, and its InferenceResult AND serialized snapshot be
//    byte-identical to a from-scratch batch run over the same days;
//  * the daemon differential — every epoch `mtscope ingest` publishes from
//    a simulated flow stream must be byte-identical to the batch
//    collect_stats + infer + build_snapshot pipeline over that epoch's
//    window, spoofing tolerance re-derived per window included;
//  * the zero-touch end-to-end — an IngestDaemon publishes consecutive
//    epochs into a live watching QueryServer while a client queries
//    continuously: every epoch must be picked up without a signal, every
//    reply must byte-match a published epoch's verdict (continuity across
//    the swap), and no query may be dropped.
//
//  * the MTFLOW reader's error paths — every documented error code, a cut
//    at every byte offset, and a record count no payload backs.
//
// Under MTSCOPE_SANITIZE=thread/address this binary doubles as the
// tsan_ingest_smoke / asan_ingest_smoke sanitizer ctests.
#include "ingest/window.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ingest/daemon.hpp"
#include "ingest/flow_stream.hpp"
#include "ingest/publish.hpp"
#include "pipeline/collector.hpp"
#include "pipeline/inference.hpp"
#include "pipeline/parallel.hpp"
#include "pipeline/spoof_tolerance.hpp"
#include "reference_ingest.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/telescope_index.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace mtscope {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Synthetic datasets for the grid: deterministic flows in 60/8, two
// vantage points per day, occasionally TCP-light — the same address space
// and shape the pipeline property tests use.

constexpr std::uint32_t kSampling = 100;
constexpr int kVantages = 2;

std::vector<flow::FlowRecord> dataset_flows(std::uint64_t seed, int day, int vantage) {
  util::Rng rng(seed * 1'000'003 + static_cast<std::uint64_t>(day) * 131 +
                static_cast<std::uint64_t>(vantage));
  std::vector<flow::FlowRecord> out;
  out.reserve(3000);
  for (std::size_t i = 0; i < 3000; ++i) {
    flow::FlowRecord r;
    r.key.src = net::Ipv4Addr((60u << 24) | static_cast<std::uint32_t>(rng.uniform(1u << 20)));
    r.key.dst = net::Ipv4Addr((60u << 24) | static_cast<std::uint32_t>(rng.uniform(1u << 20)));
    r.key.src_port = static_cast<std::uint16_t>(rng.uniform(65536));
    r.key.dst_port = static_cast<std::uint16_t>(rng.uniform(65536));
    r.key.proto = rng.chance(0.85) ? net::IpProto::kTcp : net::IpProto::kUdp;
    r.packets = 1 + rng.uniform(4);
    r.bytes = r.packets * (rng.chance(0.8) ? 40 : 1400);
    r.sampling_rate = kSampling;
    out.push_back(r);
  }
  return out;
}

const routing::Rib& grid_rib() {
  static const routing::Rib rib = [] {
    routing::Rib r;
    r.announce(*net::Prefix::parse("60.0.0.0/8"), net::AsNumber(1));
    return r;
  }();
  return rib;
}

pipeline::InferenceResult grid_infer(const pipeline::VantageStats& stats, unsigned threads) {
  static const routing::SpecialPurposeRegistry registry =
      routing::SpecialPurposeRegistry::standard();
  const pipeline::InferenceEngine engine({}, grid_rib(), registry);
  return pipeline::parallel_infer(engine, stats, threads);
}

/// The daemon's byte contract, reproduced for a synthetic window: serialize
/// through the same metadata function every publish uses.
std::vector<std::uint8_t> grid_snapshot_bytes(const pipeline::InferenceResult& result,
                                              std::uint64_t seed, int window_days,
                                              const std::vector<int>& days,
                                              std::uint64_t flows_ingested) {
  const auto meta = ingest::publish_metadata({seed, true}, window_days, days, flows_ingested,
                                             0, 1'700'000'000);
  return serve::serialize_snapshot(serve::build_snapshot(result, grid_rib(), meta));
}

void expect_results_equal(const pipeline::InferenceResult& x,
                          const pipeline::InferenceResult& y) {
  EXPECT_EQ(x.funnel, y.funnel);
  EXPECT_EQ(x.dark, y.dark);
  EXPECT_EQ(x.unclean_blocks, y.unclean_blocks);
  EXPECT_EQ(x.gray_blocks, y.gray_blocks);
  EXPECT_EQ(x.unclean, y.unclean);
  EXPECT_EQ(x.gray, y.gray);
}

// ---------------------------------------------------------------------------
// The differential grid.

struct GridCase {
  std::uint64_t seed = 0;
  int window_days = 1;
  bool deferred_eviction = false;  // advance every other day instead of daily

  friend std::ostream& operator<<(std::ostream& os, const GridCase& c) {
    return os << "seed" << c.seed << "_w" << c.window_days
              << (c.deferred_eviction ? "_deferred" : "_daily");
  }
};

std::vector<GridCase> grid_cases() {
  std::vector<GridCase> cases;
  for (const std::uint64_t seed : {42ull, 7ull, 1337ull}) {
    for (const int window : {1, 3, 7}) {
      for (const bool deferred : {false, true}) {
        cases.push_back({seed, window, deferred});
      }
    }
  }
  return cases;
}

class IngestDifferential : public ::testing::TestWithParam<GridCase> {};

TEST_P(IngestDifferential, IncrementalWindowMatchesBatchAtEveryAdvanceStep) {
  const auto [seed, window_days, deferred] = GetParam();
  const int total_days = window_days + 2;  // at least two evictions happen
  constexpr int kEmptyDay = 1;             // an outage day: elapses, carries no data

  ingest::SlidingWindow window(window_days);
  int compared_steps = 0;

  for (int day = 0; day < total_days; ++day) {
    if (day != kEmptyDay) {
      for (int v = 0; v < kVantages; ++v) {
        window.add_flows(day, dataset_flows(seed, day, v), kSampling);
      }
    }
    window.note_day(day);

    // Daily schedule advances (and compares) after every day; the deferred
    // schedule lets admissions pile up and evicts two days at once.
    if (deferred && day % 2 == 0 && day != total_days - 1) continue;
    window.advance_to(day);

    std::vector<int> retained;
    for (int d = std::max(0, day - window_days + 1); d <= day; ++d) retained.push_back(d);
    ASSERT_EQ(window.days(), retained);

    // The from-scratch batch baseline over exactly the retained days, and
    // the per-record referee over the same datasets.
    pipeline::VantageStats batch;
    referee::ReferenceStats expected;
    for (const int d : retained) {
      if (d != kEmptyDay) {
        for (int v = 0; v < kVantages; ++v) {
          const auto flows = dataset_flows(seed, d, v);
          batch.add_flows(flows, kSampling, d);
          expected.add_flows(flows, kSampling, d);
        }
      }
      batch.note_day(d);
      expected.days.insert(d);
    }

    const pipeline::VantageStats merged = window.merged();
    referee::expect_matches_reference(merged, expected);
    referee::expect_matches_reference(batch, expected);

    const auto batch_result = grid_infer(batch, 1);
    const auto batch_bytes =
        grid_snapshot_bytes(batch_result, seed, window_days, retained, batch.flows_ingested());
    for (const unsigned threads : {1u, 4u}) {
      const auto incremental = grid_infer(merged, threads);
      expect_results_equal(incremental, batch_result);
      const auto incremental_bytes = grid_snapshot_bytes(incremental, seed, window_days,
                                                         window.days(), merged.flows_ingested());
      ASSERT_EQ(incremental_bytes, batch_bytes)
          << "snapshot bytes diverged at day " << day << " threads " << threads;
    }
    ++compared_steps;
  }
  EXPECT_GE(compared_steps, 2);
}

INSTANTIATE_TEST_SUITE_P(Grid, IngestDifferential, ::testing::ValuesIn(grid_cases()));

// ---------------------------------------------------------------------------
// The MTFLOW reader's error paths: every documented code, reached from a
// small valid stream by one cut or one overwritten byte.

/// Header (24 B), one dataset of two records (21 B + 100 B payload), a day
/// end (5 B) and a stream end (1 B).
constexpr std::size_t kDatasetAt = 24;
constexpr std::size_t kPayloadAt = kDatasetAt + 21;
constexpr std::size_t kDayEndAt = kPayloadAt + 2 * ingest::kFlowRecordBytes;
constexpr std::size_t kStreamEndAt = kDayEndAt + 5;

std::string small_stream() {
  std::ostringstream out;
  ingest::FlowStreamWriter writer(out);
  writer.write_header({42, true});
  const auto flows = dataset_flows(42, 3, 0);
  writer.write_dataset(3, kSampling, "CE1", std::span(flows).first(2));
  writer.write_day_end(3);
  writer.write_stream_end();
  return out.str();
}

/// Read a whole stream: the first error's code, or "" when it ends cleanly.
/// `flows` collects every dataset's records.
std::string read_stream(const std::string& bytes, std::vector<flow::FlowRecord>* flows = nullptr) {
  std::istringstream in(bytes);
  ingest::FlowStreamReader reader(in);
  const auto header = reader.read_header();
  if (!header.ok()) return header.error().code;
  for (;;) {
    auto event = reader.next();
    if (!event.ok()) return event.error().code;
    if (event.value().kind == ingest::StreamEvent::Kind::kStreamEnd) return "";
    if (flows != nullptr) {
      flows->insert(flows->end(), event.value().flows.begin(), event.value().flows.end());
    }
  }
}

TEST(FlowStreamErrors, EveryDocumentedCode) {
  const std::string valid = small_stream();
  ASSERT_EQ(valid.size(), kStreamEndAt + 1);
  std::vector<flow::FlowRecord> flows;
  ASSERT_EQ(read_stream(valid, &flows), "");
  const auto expected = dataset_flows(42, 3, 0);
  EXPECT_EQ(flows, std::vector<flow::FlowRecord>(expected.begin(), expected.begin() + 2));

  struct Case {
    const char* name;
    std::size_t cut;    // keep this many bytes
    std::size_t at;     // then flip this byte (when < cut)...
    std::uint8_t mask;  // ...by these bits
    const char* code;
  };
  const std::size_t all = valid.size();
  const Case cases[] = {
      {"magic", all, 0, 0x20, "stream.bad_magic"},
      {"version 1 -> 2", all, 8, 0x03, "stream.unsupported_version"},
      {"header crc", all, 12, 0xff, "stream.bad_crc"},
      {"payload crc", all, kPayloadAt + 60, 0xff, "stream.bad_crc"},
      {"inside header", 10, all, 0, "stream.truncated"},
      {"inside day-end frame", kDayEndAt + 3, all, 0, "stream.truncated"},
      {"inside dataset fixed part", kDatasetAt + 5, all, 0, "stream.truncated"},
      {"inside dataset vantage", kDatasetAt + 11, all, 0, "stream.truncated"},
      {"inside payload", kPayloadAt + 50, all, 0, "stream.truncated"},
      {"frame kind 3 -> 9", all, kStreamEndAt, 0x0a, "stream.bad_frame"},
  };
  for (const Case& c : cases) {
    std::string bytes = valid.substr(0, c.cut);
    if (c.at < bytes.size()) bytes[c.at] = static_cast<char>(bytes[c.at] ^ c.mask);
    EXPECT_EQ(read_stream(bytes), c.code) << c.name;
  }
}

TEST(FlowStreamErrors, EveryCutIsTypedOrEndsOnAFrameBoundary) {
  const std::string valid = small_stream();
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const std::string code = read_stream(valid.substr(0, cut));
    if (cut == kDatasetAt || cut == kDayEndAt || cut == kStreamEndAt) {
      EXPECT_EQ(code, "") << "clean end expected at frame boundary " << cut;
    } else {
      EXPECT_EQ(code, "stream.truncated") << "cut at " << cut;
    }
  }
}

TEST(FlowStreamErrors, HugeRecordCountThenEofIsTruncatedNotAnAllocation) {
  // A dataset frame declaring 0xFFFFFFFF records (~214 GB of payload) and
  // then ending: the reader must fail at the stream's real length.
  std::string bytes = small_stream().substr(0, kDatasetAt);
  const std::uint8_t frame[] = {1,    3, 0, 0, 0,  // kind, day
                                100,  0, 0, 0,     // sampling rate
                                0,                 // vantage length
                                0xff, 0xff, 0xff, 0xff,  // record count
                                0,    0, 0, 0};    // payload crc
  bytes.append(reinterpret_cast<const char*>(frame), sizeof(frame));
  bytes.append(3 * ingest::kFlowRecordBytes, '\0');
  EXPECT_EQ(read_stream(bytes), "stream.truncated");
}

TEST(FlowStreamErrors, MultiChunkPayloadRoundTripsAndIsSealed) {
  // More records than the reader decodes per chunk, so the payload CRC
  // spans chunks.
  std::vector<flow::FlowRecord> records = dataset_flows(7, 0, 0);
  const auto more = dataset_flows(7, 0, 1);
  records.insert(records.end(), more.begin(), more.end());
  std::ostringstream out;
  ingest::FlowStreamWriter writer(out);
  writer.write_header({7, true});
  writer.write_dataset(0, kSampling, "CE1", records);
  const std::string valid = out.str();

  std::vector<flow::FlowRecord> flows;
  ASSERT_EQ(read_stream(valid, &flows), "");
  EXPECT_EQ(flows, records);

  std::string flipped = valid;
  flipped[flipped.size() - 1] ^= 0x01;  // the last record's last byte
  EXPECT_EQ(read_stream(flipped), "stream.bad_crc");
}

// ---------------------------------------------------------------------------
// Daemon-level differential over a real simulated flow stream.

/// Write `days` tiny-simulation days as a flow stream (what `mtscope
/// stream` does) and return the path.
std::string write_stream_file(const sim::Simulation& simulation, std::uint64_t seed, int days,
                              const std::string& name) {
  const std::string path = ::testing::TempDir() + "ingest_" + name + ".mtflow";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(out.good());
  ingest::FlowStreamWriter writer(out);
  writer.write_header({seed, true});
  for (int day = 0; day < days; ++day) {
    for (std::size_t ixp = 0; ixp < simulation.ixps().size(); ++ixp) {
      const auto data = simulation.run_ixp_day(ixp, day);
      writer.write_dataset(day, simulation.ixps()[ixp].sampling_rate(),
                           simulation.ixps()[ixp].spec().code, data.flows);
    }
    writer.write_day_end(day);
  }
  writer.write_stream_end();
  EXPECT_TRUE(writer.ok());
  return path;
}

TEST(IngestDaemon, EveryPublishedEpochIsByteIdenticalToBatch) {
  constexpr std::uint64_t kSeed = 42;
  constexpr int kDays = 4;
  constexpr int kWindow = 2;
  const sim::Simulation simulation(sim::SimConfig::tiny(kSeed));
  const auto stream_path = write_stream_file(simulation, kSeed, kDays, "differential");
  const std::string snapshot_path = ::testing::TempDir() + "ingest_differential.snap";

  ingest::IngestConfig config;
  config.source_path = stream_path;
  config.snapshot_out = snapshot_path;
  config.window_days = kWindow;
  config.cadence_days = 1;
  config.threads = 2;  // must not change published bytes
  config.created_unix_s = 1'700'000'000;

  // Capture what each epoch published — both the in-memory snapshot and
  // the actual file bytes on disk at that instant.
  std::vector<std::vector<std::uint8_t>> published_bytes;
  std::vector<std::vector<std::uint8_t>> file_bytes;
  ingest::IngestDaemon daemon(config);
  daemon.on_publish = [&](std::uint64_t, const serve::TelescopeSnapshot& snapshot) {
    published_bytes.push_back(serve::serialize_snapshot(snapshot));
    std::ifstream in(snapshot_path, std::ios::binary);
    file_bytes.emplace_back(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>());
  };
  const auto finished = daemon.run();
  ASSERT_TRUE(finished.ok()) << finished.error().to_string();
  EXPECT_EQ(finished.value().publishes, static_cast<std::uint64_t>(kDays));
  EXPECT_EQ(finished.value().publish_failures, 0u);
  EXPECT_EQ(finished.value().days_evicted, static_cast<std::uint64_t>(kDays - kWindow));
  ASSERT_EQ(published_bytes.size(), static_cast<std::size_t>(kDays));

  const auto ixps = pipeline::all_ixps(simulation);
  const auto registry = routing::SpecialPurposeRegistry::standard();
  for (int epoch = 1; epoch <= kDays; ++epoch) {
    const int newest = epoch - 1;
    std::vector<int> days;
    for (int d = std::max(0, newest - kWindow + 1); d <= newest; ++d) days.push_back(d);

    // From-scratch batch pipeline over this epoch's window, exactly as a
    // one-shot `mtscope infer --analytics` over those days would run it —
    // the daemon attaches the ANALYTICS section by default, so the batch
    // side must carry the matrix too for the bytes to have a chance.
    pipeline::CollectOptions collect_options;
    collect_options.analytics = true;
    const auto stats = pipeline::collect_stats(simulation, ixps, days, collect_options);
    const std::uint64_t tolerance =
        pipeline::compute_spoof_tolerance(stats, simulation.plan().unrouted_slash8s());
    pipeline::PipelineConfig pipeline_config;
    pipeline_config.volume_scale = simulation.config().volume_scale;
    pipeline_config.spoof_tolerance_pkts = tolerance;
    const pipeline::InferenceEngine engine(pipeline_config, simulation.plan().rib(), registry);
    const auto result = engine.infer(stats);
    const auto meta = ingest::publish_metadata({kSeed, true}, kWindow, days,
                                               stats.flows_ingested(), tolerance,
                                               config.created_unix_s);
    auto batch_snapshot = serve::build_snapshot(result, simulation.plan().rib(), meta);
    batch_snapshot.analytics = serve::build_analytics(
        stats.ibr(), batch_snapshot, ingest::plan_labeler(simulation.plan()));
    const auto batch_bytes = serve::serialize_snapshot(batch_snapshot);

    EXPECT_EQ(published_bytes[epoch - 1], batch_bytes) << "epoch " << epoch;
    EXPECT_EQ(file_bytes[epoch - 1], batch_bytes) << "epoch " << epoch << " (on disk)";
  }
}

// ---------------------------------------------------------------------------
// Zero-touch end to end: daemon -> atomic publish -> watching server,
// under continuous client queries.

struct EndToEndClient {
  int fd = -1;

  explicit EndToEndClient(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return;
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }

  ~EndToEndClient() {
    if (fd >= 0) ::close(fd);
  }

  bool send_all(std::string_view data) const {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const auto n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::vector<std::string> read_lines(std::size_t count) const {
    std::vector<std::string> lines;
    std::string buffer;
    char chunk[4096];
    while (lines.size() < count) {
      const auto n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        lines.push_back(buffer.substr(start, nl - start));
      }
      buffer.erase(0, start);
    }
    return lines;
  }
};

TEST(IngestServe, ZeroTouchPublishReachesAWatchingServerWithVerdictContinuity) {
  constexpr std::uint64_t kSeed = 7;
  constexpr int kDays = 3;  // cadence 1 => 3 consecutive epochs
  const sim::Simulation simulation(sim::SimConfig::tiny(kSeed));
  const auto stream_path = write_stream_file(simulation, kSeed, kDays, "e2e");
  const std::string snapshot_path = ::testing::TempDir() + "ingest_e2e.snap";

  ingest::IngestConfig config;
  config.source_path = stream_path;
  config.snapshot_out = snapshot_path;
  config.window_days = 2;
  config.cadence_days = 1;
  config.created_unix_s = 1'700'000'000;

  // Every epoch's index, in publish order — the byte-level ground truth
  // replies are verified against.
  std::mutex epochs_mutex;
  std::vector<std::unique_ptr<serve::TelescopeIndex>> epochs;

  std::unique_ptr<serve::QueryServer> server;
  std::thread server_thread;
  std::atomic<bool> server_up{false};

  ingest::IngestDaemon daemon(config);
  daemon.on_publish = [&](std::uint64_t epoch, const serve::TelescopeSnapshot& snapshot) {
    {
      const std::lock_guard<std::mutex> lock(epochs_mutex);
      epochs.push_back(std::make_unique<serve::TelescopeIndex>(snapshot));
    }
    if (epoch == 1) {
      // First epoch on disk: bring the watching server up on it.
      serve::ServerConfig server_config;
      server_config.snapshot_path = snapshot_path;
      server_config.port = 0;
      server_config.watch_interval_ms = 10;
      server = std::make_unique<serve::QueryServer>(server_config);
      const auto started = server->start();
      ASSERT_TRUE(started.ok()) << started.error().to_string();
      server_thread = std::thread([&] { (void)server->run(); });
      server_up.store(true, std::memory_order_release);
      return;
    }
    // Later epochs: block the producer until the watcher has picked this
    // epoch up with zero touches — manager epoch e == publish ordinal e
    // (the initial load was epoch 1).  The gate makes "three consecutive
    // epochs served" deterministic rather than racy.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (server->manager().epoch() < epoch &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_GE(server->manager().epoch(), epoch) << "watcher missed epoch " << epoch;
  };

  std::thread daemon_thread([&] {
    const auto finished = daemon.run();
    EXPECT_TRUE(finished.ok()) << finished.error().to_string();
    if (finished.ok()) EXPECT_EQ(finished.value().publishes, 3u);
  });

  // Continuous query load while epochs swap underneath.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!server_up.load(std::memory_order_acquire)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "first epoch never published";
    std::this_thread::sleep_for(1ms);
  }

  // Probe set: blocks of the first epoch (verdicts that may change as the
  // window slides) plus guaranteed misses.
  std::vector<std::string> probes;
  {
    const std::lock_guard<std::mutex> lock(epochs_mutex);
    const auto& blocks = epochs.front()->snapshot().blocks;
    for (std::size_t i = 0; i < blocks.size() && probes.size() < 12; i += 97) {
      probes.push_back(net::Ipv4Addr((blocks[i].block_index() << 8) | 1).to_string());
    }
  }
  probes.push_back("203.0.113.9");
  probes.push_back("8.8.8.8");

  std::atomic<bool> stop_queries{false};
  std::uint64_t sent = 0, answered = 0, unmatched = 0;
  std::thread query_thread([&] {
    EndToEndClient client(server->port());
    ASSERT_GE(client.fd, 0);
    std::string request;
    for (const auto& ip : probes) request += ip + "\n";
    while (!stop_queries.load(std::memory_order_acquire)) {
      if (!client.send_all(request)) break;
      sent += probes.size();
      const auto lines = client.read_lines(probes.size());
      answered += lines.size();
      if (lines.size() != probes.size()) break;
      // Continuity: every reply must byte-match some published epoch's
      // verdict (the swap may land mid-batch, so neighbouring epochs are
      // both legitimate — but a torn or never-published state is not).
      const std::lock_guard<std::mutex> lock(epochs_mutex);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto addr = net::Ipv4Addr::parse(probes[i]);
        bool matched = false;
        for (const auto& index : epochs) {
          if (lines[i] == serve::format_verdict(*addr, index->lookup(*addr))) {
            matched = true;
            break;
          }
        }
        if (!matched) {
          ++unmatched;
          ADD_FAILURE() << "reply '" << lines[i] << "' matches no published epoch";
        }
      }
    }
  });

  daemon_thread.join();
  stop_queries.store(true, std::memory_order_release);
  query_thread.join();

  ASSERT_TRUE(server != nullptr);
  const auto stats = server->stats();
  server->request_stop();
  server_thread.join();

  EXPECT_GE(epochs.size(), 3u);                      // >= 3 consecutive epochs published
  EXPECT_GE(server->manager().epoch(), 3u);          // ...and picked up zero-touch
  EXPECT_GE(stats.reloads, 2u);                      // epochs 2 and 3 arrived via the watcher
  EXPECT_EQ(stats.reload_failures, 0u);
  EXPECT_EQ(stats.drops, 0u);                        // zero dropped queries
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(answered, sent);                         // every query answered
  EXPECT_EQ(unmatched, 0u);
}

}  // namespace
}  // namespace mtscope
