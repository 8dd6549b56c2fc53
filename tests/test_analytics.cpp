// The IBR analytics subsystem (DESIGN.md §15), proven in layers:
//
//  * the sparse counter tables and the IbrMatrix itself — key packing,
//    growth, the commutative merge contract, and the batched tap's
//    bit-identicality to the per-record path;
//  * the collect differential — the matrix a thread/shard collect grid
//    produces must equal a per-record IbrMatrix::add_flow fold, and so
//    must the sliding window's incrementally folded matrix at every
//    advance step;
//  * the Chocolatine-style outage detector on synthetic series and on a
//    scripted simulator outage (perfect recall on the labeled event, zero
//    false positives on the clean baseline, and the suppression touching
//    nothing outside the outage prefix);
//  * the ANALYTICS snapshot section — v1 byte-compatibility when absent,
//    byte-identical v2 round trips, typed rejection of corruption;
//  * the shared query formatter and the TCP server's analytics verbs
//    (one formatter, so the wire and `mtscope analyze` cannot drift);
//  * TelescopeIndex rollup edge cases (/0, past-the-end prefixes, empty
//    snapshots) that the scoped top-ports queries lean on.
//
// Under MTSCOPE_SANITIZE=thread/address this binary doubles as the
// tsan_analytics_smoke / asan_analytics_smoke sanitizer ctests.
#include "analytics/ibr_matrix.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "analytics/outage.hpp"
#include "analytics/scanner.hpp"
#include "flow/flow_batch.hpp"
#include "ingest/daemon.hpp"
#include "ingest/window.hpp"
#include "pipeline/collector.hpp"
#include "pipeline/inference.hpp"
#include "pipeline/parallel.hpp"
#include "pipeline/spoof_tolerance.hpp"
#include "serve/analytics_format.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/telescope_index.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace mtscope {
namespace {

using analytics::IbrMatrix;
using serve::AnalyticsData;
using serve::BlockClass;
using serve::BlockEntry;
using serve::BlockLabel;
using serve::PrefixEntry;
using serve::TelescopeSnapshot;

// ---------------------------------------------------------------------------
// Matrix equality down to every table entry, via the deterministic sorted
// exports (the structs carry no operator==; tuples do).

std::vector<std::tuple<std::uint32_t, std::uint16_t, std::uint16_t, std::uint64_t>> rx_tuples(
    const IbrMatrix& m) {
  std::vector<std::tuple<std::uint32_t, std::uint16_t, std::uint16_t, std::uint64_t>> out;
  for (const auto& c : m.rx_cells()) out.emplace_back(c.block, c.port, c.day, c.packets);
  return out;
}

std::vector<std::tuple<std::uint32_t, std::uint16_t, std::uint64_t>> src_port_tuples(
    const IbrMatrix& m) {
  std::vector<std::tuple<std::uint32_t, std::uint16_t, std::uint64_t>> out;
  for (const auto& s : m.src_ports()) out.emplace_back(s.src_block, s.port, s.packets);
  return out;
}

std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> src_touch_tuples(
    const IbrMatrix& m) {
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> out;
  for (const auto& s : m.src_touches()) out.emplace_back(s.src_block, s.dst_block, s.packets);
  return out;
}

void expect_matrix_equal(const IbrMatrix& x, const IbrMatrix& y) {
  EXPECT_EQ(x.rx_cell_count(), y.rx_cell_count());
  EXPECT_EQ(rx_tuples(x), rx_tuples(y));
  EXPECT_EQ(src_port_tuples(x), src_port_tuples(y));
  EXPECT_EQ(src_touch_tuples(x), src_touch_tuples(y));
  if (!x.empty() && !y.empty()) {
    EXPECT_EQ(x.first_day(), y.first_day());
    EXPECT_EQ(x.last_day(), y.last_day());
  }
}

// ---------------------------------------------------------------------------
// CounterTable: the open-addressing substrate.

TEST(AnalyticsCounterTable, AddsSumAndAbsentKeysReadZero) {
  analytics::CounterTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(7), 0u);

  table.add(7, 5);
  table.add(7, 10);
  table.add(0, 3);  // key 0 must be a first-class citizen (block 0, port 0, day 0)
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find(7), 15u);
  EXPECT_EQ(table.find(0), 3u);
  EXPECT_EQ(table.find(8), 0u);
}

TEST(AnalyticsCounterTable, GrowthPreservesEveryEntry) {
  analytics::CounterTable table;
  constexpr std::uint64_t kEntries = 50'000;  // forces several rehashes
  util::Rng rng(11);
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    // Adjacent packed keys differ only in low bits — the worst case the
    // splitmix finalizer exists for.
    table.add(i, i + 1);
  }
  EXPECT_EQ(table.size(), kEntries);
  for (int probe = 0; probe < 1000; ++probe) {
    const std::uint64_t key = rng.uniform(kEntries);
    EXPECT_EQ(table.find(key), key + 1);
  }
  const auto sorted = table.sorted();
  ASSERT_EQ(sorted.size(), kEntries);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST(AnalyticsCounterTable, MergeIsPerKeySum) {
  analytics::CounterTable a, b;
  a.add(1, 10);
  a.add(2, 20);
  b.add(2, 5);
  b.add(3, 7);
  a.merge(b);
  EXPECT_EQ(a.find(1), 10u);
  EXPECT_EQ(a.find(2), 25u);
  EXPECT_EQ(a.find(3), 7u);
  EXPECT_EQ(a.size(), 3u);
}

// ---------------------------------------------------------------------------
// IbrMatrix: packing, tap, merge laws.

TEST(AnalyticsMatrix, DisabledMatrixIgnoresEverything) {
  IbrMatrix off;
  off.add_flow(1, 2, 80, 0, 100);
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.empty());
  EXPECT_EQ(off.rx_cell_count(), 0u);
  EXPECT_EQ(off.memory_bytes(), 0u);
}

TEST(AnalyticsMatrix, ExportsAreSortedAndKeepDayBounds) {
  IbrMatrix m(true);
  m.add_flow(/*src=*/9, /*dst=*/5, /*port=*/443, /*day=*/2, 10);
  m.add_flow(9, 5, 80, 1, 20);
  m.add_flow(8, 5, 80, 1, 5);
  m.add_flow(9, 4, 23, 3, 7);
  m.add_flow(9, 5, 80, 1, 1);  // same cell, sums

  EXPECT_EQ(m.first_day(), 1);
  EXPECT_EQ(m.last_day(), 3);
  const auto rx = rx_tuples(m);
  ASSERT_EQ(rx.size(), 3u);
  EXPECT_EQ(rx[0], std::make_tuple(4u, std::uint16_t{23}, std::uint16_t{3}, 7ull));
  EXPECT_EQ(rx[1], std::make_tuple(5u, std::uint16_t{80}, std::uint16_t{1}, 26ull));
  EXPECT_EQ(rx[2], std::make_tuple(5u, std::uint16_t{443}, std::uint16_t{2}, 10ull));
  EXPECT_TRUE(std::is_sorted(rx.begin(), rx.end()));

  const auto sp = src_port_tuples(m);
  ASSERT_EQ(sp.size(), 4u);  // (8,80), (9,23), (9,80), (9,443)
  EXPECT_TRUE(std::is_sorted(sp.begin(), sp.end()));
  const auto st = src_touch_tuples(m);
  ASSERT_EQ(st.size(), 3u);  // (8,5), (9,4), (9,5)
  EXPECT_EQ(st[0], std::make_tuple(8u, 5u, 5ull));
  EXPECT_EQ(st[1], std::make_tuple(9u, 4u, 7ull));
  EXPECT_EQ(st[2], std::make_tuple(9u, 5u, 31ull));
}

std::vector<flow::FlowRecord> tap_records(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  std::vector<flow::FlowRecord> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    flow::FlowRecord r;
    r.key.src = net::Ipv4Addr(0x0a000000u + static_cast<std::uint32_t>(rng.uniform(1u << 12)));
    r.key.dst = net::Ipv4Addr(0x14000000u + static_cast<std::uint32_t>(rng.uniform(1u << 12)));
    r.key.dst_port = static_cast<std::uint16_t>(rng.uniform(1024));
    r.key.proto = rng.chance(0.8) ? net::IpProto::kTcp : net::IpProto::kUdp;
    r.packets = 1 + rng.uniform(5);
    r.bytes = r.packets * 64;
    out.push_back(r);
  }
  return out;
}

/// The per-record tap referee: one IbrMatrix::add_flow per record, under
/// day bin `day`, with the sampling-rate volume estimate.
void tap_per_record(IbrMatrix& matrix, std::span<const flow::FlowRecord> records,
                    std::uint32_t sampling_rate, int day) {
  for (const auto& r : records) {
    matrix.add_flow(net::Block24::containing(r.key.src).index(),
                    net::Block24::containing(r.key.dst).index(), r.key.dst_port, day,
                    r.packets * sampling_rate);
  }
}

TEST(AnalyticsMatrix, BatchTapMatchesPerRecordTap) {
  constexpr std::uint32_t kRate = 100;
  const auto records = tap_records(3, 4'000);

  IbrMatrix serial(true);
  tap_per_record(serial, records, kRate, /*day=*/2);

  IbrMatrix batched(true);
  flow::FlowBatch batch;
  std::span<const flow::FlowRecord> all(records);
  for (std::size_t first = 0; first < all.size(); first += 512) {
    batch.decode(all.subspan(first, std::min<std::size_t>(512, all.size() - first)), kRate);
    std::vector<std::uint32_t> rows(batch.size());
    for (std::uint32_t i = 0; i < batch.size(); ++i) rows[i] = i;
    batched.add_batch(batch, rows, 2);
  }
  expect_matrix_equal(batched, serial);
}

TEST(AnalyticsMatrix, MergeCommutesAndFoldsSums) {
  const auto records = tap_records(5, 2'000);
  const auto fill = [&](IbrMatrix& m, std::size_t begin, std::size_t end, int day) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto& r = records[i];
      m.add_flow(net::Block24::containing(r.key.src).index(),
                 net::Block24::containing(r.key.dst).index(), r.key.dst_port, day,
                 r.packets * 10);
    }
  };
  // Overlapping halves so the merge actually sums shared cells.
  IbrMatrix a(true), b(true), ab(true), ba(true), whole(true);
  fill(a, 0, 1'200, 0);
  fill(b, 800, 2'000, 1);
  fill(ab, 0, 1'200, 0);
  fill(ba, 800, 2'000, 1);
  fill(whole, 0, 1'200, 0);
  fill(whole, 800, 2'000, 1);

  ab.merge(b);   // a + b
  ba.merge(a);   // b + a
  expect_matrix_equal(ab, ba);
  expect_matrix_equal(ab, whole);
  EXPECT_EQ(ab.first_day(), 0);
  EXPECT_EQ(ab.last_day(), 1);
}

// ---------------------------------------------------------------------------
// Collect differential: the tap across the thread/shard grid vs the
// per-record tap referee.

struct TapConfig {
  unsigned threads;
  unsigned shards;
};

void PrintTo(const TapConfig& config, std::ostream* os) {
  *os << config.threads << " thread(s) x " << config.shards << " shard(s)";
}

struct TapBaseline {
  sim::Simulation simulation{sim::SimConfig::tiny(101)};
  std::vector<std::size_t> ixps = pipeline::all_ixps(simulation);
  std::vector<int> days{0, 1, 2};
  IbrMatrix per_record = [this] {
    IbrMatrix matrix(true);
    for (const int day : days) {
      for (const std::size_t ixp : ixps) {
        const auto data = simulation.run_ixp_day(ixp, day);
        tap_per_record(matrix, data.flows, simulation.ixps()[ixp].sampling_rate(), day);
      }
    }
    return matrix;
  }();
};

const TapBaseline& tap_baseline() {
  static const TapBaseline shared;
  return shared;
}

class AnalyticsCollectDifferential : public ::testing::TestWithParam<TapConfig> {};

TEST_P(AnalyticsCollectDifferential, TapMatchesSerialAcrossThreadShardGrid) {
  const TapBaseline& base = tap_baseline();
  pipeline::CollectOptions options;
  options.threads = GetParam().threads;
  options.shards = GetParam().shards;
  options.analytics = true;
  const auto stats =
      pipeline::collect_stats(base.simulation, base.ixps, base.days, options);
  EXPECT_TRUE(stats.ibr().enabled());
  expect_matrix_equal(stats.ibr(), base.per_record);
}

INSTANTIATE_TEST_SUITE_P(ThreadShardGrid, AnalyticsCollectDifferential,
                         ::testing::Values(TapConfig{1, 1}, TapConfig{2, 4}, TapConfig{3, 5},
                                           TapConfig{4, 16}));

TEST(AnalyticsCollectDifferential, DisabledCollectKeepsMatrixEmpty) {
  const TapBaseline& base = tap_baseline();
  pipeline::CollectOptions options;
  options.threads = 2;
  options.shards = 4;
  const auto stats =
      pipeline::collect_stats(base.simulation, base.ixps, base.days, options);
  EXPECT_FALSE(stats.ibr().enabled());
  EXPECT_TRUE(stats.ibr().empty());
}

// ---------------------------------------------------------------------------
// Sliding-window differential: the per-day matrix slices must fold to the
// per-record tap over the retained days at every advance step, across
// eviction.

TEST(AnalyticsWindowDifferential, IncrementalMatrixMatchesBatchAtEveryAdvanceStep) {
  constexpr int kWindow = 3;
  constexpr int kTotalDays = 6;
  constexpr std::uint32_t kRate = 50;
  ingest::SlidingWindow window(kWindow, nullptr, /*analytics=*/true);

  for (int day = 0; day < kTotalDays; ++day) {
    for (int vantage = 0; vantage < 2; ++vantage) {
      window.add_flows(day, tap_records(100 + day * 10 + vantage, 1'500), kRate);
    }
    window.note_day(day);
    window.advance_to(day);

    IbrMatrix expected(true);
    for (int d = std::max(0, day - kWindow + 1); d <= day; ++d) {
      for (int vantage = 0; vantage < 2; ++vantage) {
        tap_per_record(expected, tap_records(100 + d * 10 + vantage, 1'500), kRate, d);
      }
    }
    const pipeline::VantageStats merged = window.merged();
    EXPECT_TRUE(merged.ibr().enabled()) << "day " << day;
    expect_matrix_equal(merged.ibr(), expected);
  }
}

// ---------------------------------------------------------------------------
// Outage detector on synthetic series.

analytics::PrefixDaySeries series_of(std::uint32_t id, std::vector<std::uint64_t> packets) {
  analytics::PrefixDaySeries s;
  s.prefix_id = id;
  s.packets = std::move(packets);
  return s;
}

TEST(AnalyticsOutageDetector, FlatSeriesRaisesNothing) {
  const std::vector<analytics::PrefixDaySeries> series{
      series_of(0, {10'000, 10'100, 9'900, 10'050, 10'000, 9'950, 10'000})};
  EXPECT_TRUE(analytics::detect_outages(series, 0).empty());
}

TEST(AnalyticsOutageDetector, DeepDipCoalescesIntoOneEvent) {
  const std::vector<analytics::PrefixDaySeries> series{
      series_of(3, {12'000, 12'200, 11'800, 12'100, 0, 0, 12'000})};
  const auto events = analytics::detect_outages(series, /*first_day=*/10);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].prefix_id, 3u);
  EXPECT_EQ(events[0].start_day, 14u);
  EXPECT_EQ(events[0].end_day, 15u);
  EXPECT_EQ(events[0].severity_pct, 100u);
  EXPECT_EQ(events[0].baseline, 12'000u);
  EXPECT_EQ(events[0].observed, 0u);
}

TEST(AnalyticsOutageDetector, SeparatedDipsStaySeparateEvents) {
  const std::vector<analytics::PrefixDaySeries> series{
      series_of(1, {20'000, 0, 20'000, 20'000, 20'000, 0, 20'000})};
  const auto events = analytics::detect_outages(series, 0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].start_day, 1u);
  EXPECT_EQ(events[0].end_day, 1u);
  EXPECT_EQ(events[1].start_day, 5u);
  EXPECT_EQ(events[1].end_day, 5u);
}

TEST(AnalyticsOutageDetector, WeekendModulationIsNotAnOutage) {
  // A 30% day-of-week dip is in-distribution: the ratio gate (0.35 x
  // baseline) must hold its ground.
  const std::vector<analytics::PrefixDaySeries> series{
      series_of(0, {10'000, 10'000, 10'000, 10'000, 10'000, 7'000, 7'000})};
  EXPECT_TRUE(analytics::detect_outages(series, 0).empty());
}

TEST(AnalyticsOutageDetector, TinyBaselinesAreNeverJudged) {
  // Median volume below min_baseline: a silent day means nothing.
  const std::vector<analytics::PrefixDaySeries> series{
      series_of(0, {400, 410, 390, 0, 0, 405, 400})};
  EXPECT_TRUE(analytics::detect_outages(series, 0).empty());
}

TEST(AnalyticsOutageDetector, ShortWindowsAreNeverJudged) {
  const std::vector<analytics::PrefixDaySeries> series{series_of(0, {50'000, 0, 50'000})};
  EXPECT_TRUE(analytics::detect_outages(series, 0).empty());
}

// ---------------------------------------------------------------------------
// Scanner insight.

TEST(AnalyticsScanner, TopServicesRanksPerGroup) {
  std::vector<analytics::LabeledPortCount> cells;
  // Group (1, 2): port 23 dominates, then 80, then 443.
  cells.push_back({1, 2, 80, 500});
  cells.push_back({1, 2, 23, 900});
  cells.push_back({1, 2, 443, 100});
  cells.push_back({1, 2, 23, 100});  // summed with the other 23 entry
  // Group (2, 1): single port.
  cells.push_back({2, 1, 7, 42});

  const auto ranked = analytics::top_services(cells, /*per_group=*/2);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0], (analytics::ServicePortStat{1, 2, 23, 0, 1'000}));
  EXPECT_EQ(ranked[1], (analytics::ServicePortStat{1, 2, 80, 1, 500}));
  EXPECT_EQ(ranked[2], (analytics::ServicePortStat{2, 1, 7, 0, 42}));
}

TEST(AnalyticsScanner, TopScannersRankAndFilterByMap) {
  IbrMatrix m(true);
  // Source 100: wide fan-out into the map (blocks 10..14, port 23 only).
  for (std::uint32_t b = 10; b < 15; ++b) m.add_flow(100, b, 23, 0, 1'000);
  // Source 200: one in-map block, many ports, higher volume per cell.
  for (std::uint16_t p = 1; p <= 4; ++p) m.add_flow(200, 11, p, 0, 2'000);
  // Source 300: only talks to out-of-map space — must not appear at all.
  m.add_flow(300, 99, 23, 0, 50'000);

  const auto in_map = [](std::uint32_t block) { return block >= 10 && block < 15; };
  const auto scanners = analytics::top_scanners(m, in_map, /*limit=*/10);
  ASSERT_EQ(scanners.size(), 2u);
  EXPECT_EQ(scanners[0], (analytics::ScannerProfile{200, 1, 4, 8'000}));
  EXPECT_EQ(scanners[1], (analytics::ScannerProfile{100, 5, 1, 5'000}));

  const auto top1 = analytics::top_scanners(m, in_map, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].src_block, 200u);
}

// ---------------------------------------------------------------------------
// A hand-built map + matrix for build_analytics, the formatter, and the
// codec: two announced /16s with known labels, an orphan block, and
// out-of-map noise that the meta-telescope filter must drop.

constexpr std::uint32_t kPrefixA = 0;  // 10.1.0.0/16, AS65001, "US"
constexpr std::uint32_t kPrefixB = 1;  // 10.2.0.0/16, AS65002, "DE"

net::Block24 block_at(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
  return net::Block24::containing(net::Ipv4Addr::from_octets(a, b, c, 0));
}

TelescopeSnapshot synthetic_snapshot() {
  TelescopeSnapshot snap;
  snap.meta.seed = 9;
  snap.meta.days = 7;
  snap.meta.created_unix_s = 1'700'000'000;
  snap.meta.source = "analytics fixture";
  snap.prefixes.push_back(PrefixEntry{0x0a010000u, 65'001, 16});
  snap.prefixes.push_back(PrefixEntry{0x0a020000u, 65'002, 16});
  for (std::uint8_t c = 0; c < 4; ++c) {
    snap.blocks.push_back(BlockEntry::make(block_at(10, 1, c), BlockClass::kDark, kPrefixA));
  }
  snap.blocks.push_back(BlockEntry::make(block_at(10, 2, 0), BlockClass::kDark, kPrefixB));
  snap.blocks.push_back(BlockEntry::make(block_at(10, 2, 1), BlockClass::kDark, kPrefixB));
  // A gray block (no series contribution) and an orphan dark block.
  snap.blocks.push_back(BlockEntry::make(block_at(10, 2, 2), BlockClass::kGray, kPrefixB));
  snap.blocks.push_back(
      BlockEntry::make(block_at(203, 0, 113), BlockClass::kDark, BlockEntry::kNoPrefix));
  snap.dark_count = 7;
  snap.gray_count = 1;
  return snap;
}

serve::BlockLabeler synthetic_labeler() {
  return [](net::Block24 block) {
    BlockLabel label;
    const std::uint32_t second_octet = (block.index() >> 8) & 0xff;
    if (second_octet == 1) {
      label.country[0] = 'U';
      label.country[1] = 'S';
      label.continent = 1;
      label.net_type = 1;
    } else if (second_octet == 2) {
      label.country[0] = 'D';
      label.country[1] = 'E';
      label.continent = 2;
      label.net_type = 2;
    }
    return label;
  };
}

/// Seven days of radiation: prefix A's blocks hum steadily; prefix B goes
/// silent on days 5-6 (the scripted outage); an out-of-map block attracts
/// traffic that must be filtered; one noisy scanner fans out.
IbrMatrix synthetic_matrix() {
  IbrMatrix m(true);
  const std::uint32_t scanner = block_at(198, 18, 0).index();
  const std::uint32_t other_src = block_at(198, 18, 1).index();
  for (int day = 0; day < 7; ++day) {
    for (std::uint8_t c = 0; c < 4; ++c) {
      const std::uint32_t dst = block_at(10, 1, c).index();
      m.add_flow(scanner, dst, 23, day, 3'000);
      m.add_flow(other_src, dst, 80, day, 2'000);
    }
    if (day < 5) {
      m.add_flow(scanner, block_at(10, 2, 0).index(), 23, day, 4'000);
      m.add_flow(other_src, block_at(10, 2, 1).index(), 443, day, 2'000);
    }
    // The gray block and out-of-map noise.
    m.add_flow(other_src, block_at(10, 2, 2).index(), 53, day, 1'000);
    m.add_flow(scanner, block_at(99, 9, 9).index(), 23, day, 9'000);
  }
  return m;
}

struct SyntheticAnalytics {
  TelescopeSnapshot snapshot = synthetic_snapshot();
  SyntheticAnalytics() {
    snapshot.analytics =
        serve::build_analytics(synthetic_matrix(), snapshot, synthetic_labeler());
  }
};

const TelescopeSnapshot& synthetic_with_analytics() {
  static const SyntheticAnalytics shared;
  return shared.snapshot;
}

TEST(AnalyticsBuild, FiltersToTheMapAndLabelsEveryBlock) {
  const TelescopeSnapshot& snap = synthetic_with_analytics();
  ASSERT_TRUE(snap.analytics.has_value());
  const AnalyticsData& a = *snap.analytics;

  EXPECT_EQ(a.first_day, 0u);
  EXPECT_EQ(a.window_days, 7u);
  ASSERT_EQ(a.labels.size(), snap.blocks.size());
  EXPECT_EQ(a.labels[0].country[0], 'U');
  EXPECT_EQ(a.labels[4].country[0], 'D');
  EXPECT_EQ(std::string_view(a.labels[7].country, 2), "--");  // orphan: unknown

  // Cells are per-(block, port) window sums, in-map only, sorted.
  for (const auto& cell : a.cells) {
    EXPECT_NE(cell.block, block_at(99, 9, 9).index()) << "out-of-map cell survived";
  }
  std::vector<std::pair<std::uint32_t, std::uint16_t>> order;
  for (const auto& cell : a.cells) order.emplace_back(cell.block, cell.port);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  // 4 A-blocks x 2 ports + 2 B-blocks x 1 port + 1 gray x 1 port = 11.
  EXPECT_EQ(a.cells.size(), 11u);
  EXPECT_EQ(a.cells[0].block, block_at(10, 1, 0).index());
  EXPECT_EQ(a.cells[0].port, 23);
  EXPECT_EQ(a.cells[0].packets, 21'000u);  // 3000 x 7 days

  // Series: dark blocks with a prefix only — the gray block's port-53
  // traffic must not leak into prefix B's series.
  std::uint64_t b_day0 = 0;
  for (const auto& p : a.series) {
    EXPECT_LT(p.prefix_id, snap.prefixes.size());
    if (p.prefix_id == kPrefixB) {
      EXPECT_LT(p.day, 5u) << "silent day stored explicitly";
      if (p.day == 0) b_day0 = p.packets;
    }
  }
  EXPECT_EQ(b_day0, 6'000u);  // 4000 + 2000, no gray 1000

  // The scripted silence: exactly one event, prefix B, days 5-6, total.
  ASSERT_EQ(a.outages.size(), 1u);
  EXPECT_EQ(a.outages[0].prefix_id, kPrefixB);
  EXPECT_EQ(a.outages[0].start_day, 5u);
  EXPECT_EQ(a.outages[0].end_day, 6u);
  EXPECT_EQ(a.outages[0].severity_pct, 100u);
  EXPECT_EQ(a.outages[0].baseline, 6'000u);

  // Scanners: both sources profile over in-map traffic only.
  ASSERT_EQ(a.scanners.size(), 2u);
  EXPECT_EQ(a.scanners[0].src_block, block_at(198, 18, 0).index());
  EXPECT_EQ(a.scanners[0].blocks_touched, 5u);  // 4 A-blocks + B-block 0
  EXPECT_EQ(a.scanners[0].est_packets, 4u * 21'000u + 5u * 4'000u);
  EXPECT_GE(a.scanners[0].est_packets, a.scanners[1].est_packets);

  // Services carry the group labels.
  EXPECT_FALSE(a.services.empty());
  for (const auto& s : a.services) {
    EXPECT_TRUE(s.continent == 1 || s.continent == 2) << unsigned{s.continent};
  }
}

TEST(AnalyticsBuild, EmptyMatrixYieldsLabelsOnly) {
  const TelescopeSnapshot base = synthetic_snapshot();
  const IbrMatrix empty(true);
  const AnalyticsData a = serve::build_analytics(empty, base, synthetic_labeler());
  EXPECT_EQ(a.first_day, 0u);
  EXPECT_EQ(a.window_days, 0u);
  EXPECT_EQ(a.labels.size(), base.blocks.size());
  EXPECT_TRUE(a.cells.empty());
  EXPECT_TRUE(a.series.empty());
  EXPECT_TRUE(a.outages.empty());
  EXPECT_TRUE(a.scanners.empty());
}

// ---------------------------------------------------------------------------
// The ANALYTICS wire section.

TEST(AnalyticsSnapshotCodec, AnalyticsFreeSnapshotsStayVersionOne) {
  const auto bytes = serve::serialize_snapshot(synthetic_snapshot());
  // Version u16 sits right after the 8-byte magic.
  ASSERT_GT(bytes.size(), 10u);
  EXPECT_EQ(bytes[8], 1);
  EXPECT_EQ(bytes[9], 0);
  const auto parsed = serve::parse_snapshot(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_FALSE(parsed.value().analytics.has_value());
}

TEST(AnalyticsSnapshotCodec, RoundTripsByteIdentical) {
  const TelescopeSnapshot& snap = synthetic_with_analytics();
  const auto bytes = serve::serialize_snapshot(snap);
  EXPECT_EQ(bytes[8], 2);  // five-section layout

  const auto parsed = serve::parse_snapshot(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_TRUE(parsed.value().analytics.has_value());
  EXPECT_TRUE(parsed.value() == snap);
  EXPECT_EQ(serve::serialize_snapshot(parsed.value()), bytes);
}

TEST(AnalyticsSnapshotCodec, EmptyWindowAnalyticsRoundTrips) {
  TelescopeSnapshot snap = synthetic_snapshot();
  snap.analytics = serve::build_analytics(IbrMatrix(true), snap, synthetic_labeler());
  const auto bytes = serve::serialize_snapshot(snap);
  const auto parsed = serve::parse_snapshot(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value() == snap);
}

TEST(AnalyticsSnapshotCodec, CorruptAnalyticsBytesFailTyped) {
  const auto good = serve::serialize_snapshot(synthetic_with_analytics());

  // Flip one byte inside the last section's payload: the CRC must catch it.
  auto flipped = good;
  flipped[flipped.size() - 5] ^= 0x40;
  const auto crc = serve::parse_snapshot(flipped);
  ASSERT_FALSE(crc.ok());
  EXPECT_EQ(crc.error().code, "snapshot.bad_crc");

  auto truncated = good;
  truncated.resize(truncated.size() - 3);
  const auto trunc = serve::parse_snapshot(truncated);
  ASSERT_FALSE(trunc.ok());
  EXPECT_EQ(trunc.error().code, "snapshot.truncated");
}

TEST(AnalyticsSnapshotCodec, MalformedSectionContentIsRejected) {
  // serialize is a pure writer, so a semantically broken AnalyticsData
  // produces valid framing with invalid content — parse must refuse it.
  TelescopeSnapshot out_of_order = synthetic_with_analytics();
  ASSERT_GE(out_of_order.analytics->cells.size(), 2u);
  std::swap(out_of_order.analytics->cells[0], out_of_order.analytics->cells[1]);
  const auto cells = serve::parse_snapshot(serve::serialize_snapshot(out_of_order));
  ASSERT_FALSE(cells.ok());
  EXPECT_EQ(cells.error().code, "snapshot.bad_section");

  TelescopeSnapshot dangling = synthetic_with_analytics();
  ASSERT_FALSE(dangling.analytics->series.empty());
  dangling.analytics->series[0].prefix_id = 999;  // past the prefix table
  const auto series = serve::parse_snapshot(serve::serialize_snapshot(dangling));
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(series.error().code, "snapshot.bad_section");

  TelescopeSnapshot misaligned = synthetic_with_analytics();
  misaligned.analytics->labels.pop_back();  // no longer block-aligned
  const auto labels = serve::parse_snapshot(serve::serialize_snapshot(misaligned));
  ASSERT_FALSE(labels.ok());
  EXPECT_EQ(labels.error().code, "snapshot.bad_section");
}

// ---------------------------------------------------------------------------
// The shared formatter.

TEST(AnalyticsFormatter, VerbDetectionIsFirstTokenOnly) {
  EXPECT_TRUE(serve::is_analytics_verb("top-ports"));
  EXPECT_TRUE(serve::is_analytics_verb("  outages 3  "));
  EXPECT_TRUE(serve::is_analytics_verb("scanners 5"));
  EXPECT_FALSE(serve::is_analytics_verb("10.0.0.1"));
  EXPECT_FALSE(serve::is_analytics_verb(""));
  EXPECT_FALSE(serve::is_analytics_verb("ports top"));
}

TEST(AnalyticsFormatter, AnswersEveryQueryShape) {
  const serve::TelescopeIndex index(synthetic_with_analytics());

  // Map-wide: port 23 dominates (21000x4 + 4000x5 = 104000), then 80.
  EXPECT_EQ(serve::answer_analytics_query(index, "top-ports", 2),
            "top-ports map blocks=8 23:104000 80:56000");

  // Scoped by prefix, ASN and country — the same blocks three ways.
  const std::string by_prefix =
      serve::answer_analytics_query(index, "top-ports 10.2.0.0/16", 5);
  EXPECT_EQ(by_prefix, "top-ports 10.2.0.0/16 blocks=3 23:20000 443:10000 53:7000");
  const std::string by_asn = serve::answer_analytics_query(index, "top-ports 65002", 5);
  EXPECT_EQ(by_asn, "top-ports 65002 blocks=3 23:20000 443:10000 53:7000");
  const std::string by_cc = serve::answer_analytics_query(index, "top-ports de", 5);
  EXPECT_EQ(by_cc, "top-ports de blocks=3 23:20000 443:10000 53:7000");

  // A prefix covering nothing published.
  EXPECT_EQ(serve::answer_analytics_query(index, "top-ports 172.16.0.0/16", 5),
            "top-ports 172.16.0.0/16 blocks=0");

  // Outages, with and without the since-day filter.
  EXPECT_EQ(serve::answer_analytics_query(index, "outages", 5),
            "outages n=1 10.2.0.0/16:d5-d6:-100%");
  EXPECT_EQ(serve::answer_analytics_query(index, "outages 6", 5),
            "outages n=1 10.2.0.0/16:d5-d6:-100%");
  EXPECT_EQ(serve::answer_analytics_query(index, "outages 7", 5), "outages n=0");

  // Scanners, ranked by volume.
  const std::string scanners = serve::answer_analytics_query(index, "scanners 1", 5);
  EXPECT_EQ(scanners, "scanners n=1 198.18.0.0/24:pkts=104000:blocks=5:ports=1");

  // Malformed arguments echo sanitized + " invalid".
  EXPECT_EQ(serve::answer_analytics_query(index, "top-ports 1.2.3.0/33", 5),
            "top-ports 1.2.3.0/33 invalid");
  EXPECT_EQ(serve::answer_analytics_query(index, "top-ports USA", 5),
            "top-ports USA invalid");
  EXPECT_EQ(serve::answer_analytics_query(index, "outages soon", 5),
            "outages soon invalid");
  EXPECT_EQ(serve::answer_analytics_query(index, "scanners 0", 5), "scanners 0 invalid");
  EXPECT_EQ(serve::answer_analytics_query(index, "scanners 1 2", 5),
            "scanners 1 2 invalid");
}

TEST(AnalyticsFormatter, VersionOneSnapshotsAnswerUnavailable) {
  const serve::TelescopeIndex index(synthetic_snapshot());
  EXPECT_EQ(serve::answer_analytics_query(index, "top-ports", 5), "top-ports unavailable");
  EXPECT_EQ(serve::answer_analytics_query(index, "outages 3", 5), "outages unavailable");
  EXPECT_EQ(serve::answer_analytics_query(index, "scanners", 5), "scanners unavailable");
}

// ---------------------------------------------------------------------------
// The TCP server speaks the same strings.

struct VerbClient {
  int fd = -1;

  explicit VerbClient(std::uint16_t port) {
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
  ~VerbClient() {
    if (fd >= 0) ::close(fd);
  }
  VerbClient(const VerbClient&) = delete;
  VerbClient& operator=(const VerbClient&) = delete;

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

TEST(AnalyticsServerVerbs, WireRepliesMatchTheSharedFormatter) {
  const std::string path = ::testing::TempDir() + "analytics_verbs.snap";
  const auto written = serve::write_snapshot_file(synthetic_with_analytics(), path);
  ASSERT_TRUE(written.ok()) << written.error().to_string();

  serve::ServerConfig config;
  config.snapshot_path = path;
  config.port = 0;
  serve::QueryServer server(config);
  const auto started = server.start();
  ASSERT_TRUE(started.ok()) << started.error().to_string();
  std::thread runner([&server] { server.run(); });

  const serve::TelescopeIndex index(synthetic_with_analytics());
  {
    VerbClient client(server.port());
    ASSERT_GE(client.fd, 0);
    // Verbs interleave with the IPv4 fast path on one connection; the
    // wire default ranking depth is the formatter's (top 5).
    ASSERT_TRUE(client.send_all("top-ports\n10.1.0.7\noutages\nscanners 2\n"
                                "top-ports us\nnot-a-verb\n"));
    const auto lines = client.read_lines(6);
    ASSERT_EQ(lines.size(), 6u);
    EXPECT_EQ(lines[0], serve::answer_analytics_query(index, "top-ports"));
    EXPECT_EQ(lines[1],
              serve::format_verdict(*net::Ipv4Addr::parse("10.1.0.7"),
                                    index.lookup(*net::Ipv4Addr::parse("10.1.0.7"))));
    EXPECT_EQ(lines[2], serve::answer_analytics_query(index, "outages"));
    EXPECT_EQ(lines[3], serve::answer_analytics_query(index, "scanners 2"));
    EXPECT_EQ(lines[4], serve::answer_analytics_query(index, "top-ports us"));
    EXPECT_EQ(lines[5], "not-a-verb invalid");
  }
  server.request_stop();
  runner.join();
  EXPECT_GE(server.stats().queries, 5u);
}

// ---------------------------------------------------------------------------
// The scripted simulator outage, end to end.

using FlowTuple = std::tuple<std::uint32_t, std::uint32_t, std::uint16_t, std::uint16_t,
                             std::uint8_t, std::uint64_t, std::uint64_t>;

std::vector<FlowTuple> sorted_flow_tuples(const std::vector<flow::FlowRecord>& flows,
                                          const net::Prefix* excluding_dst = nullptr) {
  std::vector<FlowTuple> out;
  out.reserve(flows.size());
  for (const auto& r : flows) {
    if (excluding_dst != nullptr &&
        excluding_dst->contains(net::Block24::containing(r.key.dst))) {
      continue;
    }
    out.emplace_back(r.key.src.value(), r.key.dst.value(), r.key.src_port, r.key.dst_port,
                     static_cast<std::uint8_t>(r.key.proto), r.packets, r.bytes);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(AnalyticsSimOutage, SuppressionTouchesNothingOutsideThePrefix) {
  constexpr std::uint64_t kSeed = 77;
  sim::SimConfig clean_config = sim::SimConfig::tiny(kSeed);
  sim::SimConfig outage_config = sim::SimConfig::tiny(kSeed);
  outage_config.outage = {/*start_day=*/2, /*duration_days=*/1};
  const sim::Simulation clean(clean_config);
  const sim::Simulation scripted(outage_config);

  const net::Prefix& prefix = scripted.plan().outage_prefix();
  EXPECT_LE(prefix.length(), 14);
  EXPECT_EQ(clean.plan().outage_prefix().to_string(), prefix.to_string());

  std::size_t removed = 0;
  for (int day = 0; day < 4; ++day) {
    for (std::size_t ixp = 0; ixp < clean.ixps().size(); ++ixp) {
      const auto base = clean.run_ixp_day(ixp, day).flows;
      const auto with = scripted.run_ixp_day(ixp, day).flows;
      if (day != 2) {
        // RNG preservation: days outside the outage are bit-identical.
        ASSERT_EQ(sorted_flow_tuples(with), sorted_flow_tuples(base))
            << "day " << day << " ixp " << ixp;
      } else {
        // The outage day loses dark-prefix-destined IBR and nothing else.
        // A single IXP may legitimately sample zero flows into the /14
        // that day, so the "something was removed" check is day-global.
        ASSERT_EQ(sorted_flow_tuples(with, &prefix), sorted_flow_tuples(base, &prefix))
            << "ixp " << ixp;
        const auto with_all = sorted_flow_tuples(with);
        const auto base_all = sorted_flow_tuples(base);
        EXPECT_TRUE(std::includes(base_all.begin(), base_all.end(), with_all.begin(),
                                  with_all.end()));
        removed += base_all.size() - with_all.size();
      }
    }
  }
  EXPECT_GT(removed, 0u) << "outage removed nothing anywhere";
}

/// Collect a 7-day tiny window with analytics and publish it the way
/// `mtscope infer --analytics` does.
TelescopeSnapshot analyzed_week(const sim::Simulation& simulation) {
  const auto ixps = pipeline::all_ixps(simulation);
  const std::vector<int> days{0, 1, 2, 3, 4, 5, 6};
  pipeline::CollectOptions options;
  options.threads = 4;
  options.shards = 4;
  options.analytics = true;
  const auto stats = pipeline::collect_stats(simulation, ixps, days, options);
  pipeline::PipelineConfig config;
  config.volume_scale = simulation.config().volume_scale;
  config.spoof_tolerance_pkts =
      pipeline::compute_spoof_tolerance(stats, simulation.plan().unrouted_slash8s());
  const auto registry = routing::SpecialPurposeRegistry::standard();
  const pipeline::InferenceEngine engine(config, simulation.plan().rib(), registry);
  const auto result = pipeline::parallel_infer(engine, stats, options.threads);

  serve::RunMetadata meta;
  meta.seed = simulation.config().seed;
  meta.days = 7;
  auto snapshot = serve::build_snapshot(result, simulation.plan().rib(), meta);
  snapshot.analytics = serve::build_analytics(stats.ibr(), snapshot,
                                              ingest::plan_labeler(simulation.plan()));
  return snapshot;
}

TEST(AnalyticsSimOutage, DetectorHasPerfectRecallAndZeroFalsePositives) {
  constexpr std::uint64_t kSeed = 42;
  sim::SimConfig clean_config = sim::SimConfig::tiny(kSeed);
  sim::SimConfig outage_config = sim::SimConfig::tiny(kSeed);
  outage_config.outage = {/*start_day=*/4, /*duration_days=*/2};

  // Zero false positives: a clean week raises no events at all.
  const sim::Simulation clean(clean_config);
  const auto clean_snapshot = analyzed_week(clean);
  ASSERT_TRUE(clean_snapshot.analytics.has_value());
  EXPECT_TRUE(clean_snapshot.analytics->outages.empty());

  // Perfect recall: the scripted silence is found, attributed to the dark
  // /14's covering announcement, on exactly the scripted days — and no
  // other prefix is dragged in (zero false positives under the outage run
  // too; ground truth labels exactly one).
  const sim::Simulation scripted(outage_config);
  const auto snapshot = analyzed_week(scripted);
  ASSERT_TRUE(snapshot.analytics.has_value());
  const auto& outages = snapshot.analytics->outages;
  ASSERT_EQ(outages.size(), 1u);
  EXPECT_EQ(snapshot.prefixes[outages[0].prefix_id].prefix().to_string(),
            scripted.plan().outage_prefix().to_string());
  EXPECT_EQ(outages[0].start_day, 4u);
  EXPECT_EQ(outages[0].end_day, 5u);
  EXPECT_EQ(outages[0].observed, 0u);
  EXPECT_EQ(outages[0].severity_pct, 100u);
  EXPECT_GE(outages[0].baseline, 5'000u);

  // The wire view of the same events.
  const serve::TelescopeIndex index(snapshot);
  const std::string reply = serve::answer_analytics_query(index, "outages");
  EXPECT_EQ(reply, "outages n=1 " + scripted.plan().outage_prefix().to_string() +
                       ":d4-d5:-100%");
}

// ---------------------------------------------------------------------------
// TelescopeIndex rollup edges: the range queries the scoped top-ports
// lean on.

TelescopeSnapshot rollup_snapshot() {
  TelescopeSnapshot snap;
  snap.prefixes.push_back(PrefixEntry{0x00000000u, 65'000, 8});
  // Extremes on purpose: the very first and very last possible /24.
  snap.blocks.push_back(BlockEntry::make(net::Block24(0x000000u), BlockClass::kDark, 0));
  snap.blocks.push_back(BlockEntry::make(block_at(10, 0, 1), BlockClass::kGray,
                                         BlockEntry::kNoPrefix));
  snap.blocks.push_back(BlockEntry::make(block_at(10, 0, 2), BlockClass::kDark,
                                         BlockEntry::kNoPrefix));
  snap.blocks.push_back(BlockEntry::make(net::Block24(0xffffffu), BlockClass::kUnclean,
                                         BlockEntry::kNoPrefix));
  snap.dark_count = 2;
  snap.unclean_count = 1;
  snap.gray_count = 1;
  return snap;
}

TEST(TelescopeIndexRollup, SlashZeroVisitsEveryBlockInOrder) {
  const serve::TelescopeIndex index(rollup_snapshot());
  const net::Prefix everything(net::Ipv4Addr(0), 0);
  std::vector<std::uint32_t> visited;
  index.for_each_in(everything,
                    [&](net::Block24 block, BlockClass) { visited.push_back(block.index()); });
  EXPECT_EQ(visited, (std::vector<std::uint32_t>{0x000000u, block_at(10, 0, 1).index(),
                                                 block_at(10, 0, 2).index(), 0xffffffu}));
  EXPECT_EQ(index.count_in(everything), 4u);
}

TEST(TelescopeIndexRollup, PrefixPastTheLastBlockVisitsNothing) {
  TelescopeSnapshot snap;
  snap.blocks.push_back(BlockEntry::make(block_at(10, 0, 0), BlockClass::kDark,
                                         BlockEntry::kNoPrefix));
  snap.dark_count = 1;
  const serve::TelescopeIndex index(std::move(snap));

  const auto beyond = *net::Prefix::parse("200.0.0.0/8");
  EXPECT_EQ(index.count_in(beyond), 0u);
  index.for_each_in(beyond, [](net::Block24, BlockClass) { FAIL() << "visited past end"; });

  const auto before = *net::Prefix::parse("9.0.0.0/8");
  EXPECT_EQ(index.count_in(before), 0u);
  EXPECT_EQ(index.count_in(*net::Prefix::parse("10.0.0.0/8")), 1u);
}

TEST(TelescopeIndexRollup, EmptySnapshotAnswersEveryRangeWithNothing) {
  const serve::TelescopeIndex index(TelescopeSnapshot{});
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.count_in(net::Prefix(net::Ipv4Addr(0), 0)), 0u);
  index.for_each_in(net::Prefix(net::Ipv4Addr(0), 0),
                    [](net::Block24, BlockClass) { FAIL() << "visited in empty index"; });
  EXPECT_EQ(index.count_in(*net::Prefix::parse("255.255.255.0/24")), 0u);
}

TEST(TelescopeIndexRollup, LongerThanSlash24VisitsNothing) {
  const serve::TelescopeIndex index(rollup_snapshot());
  const net::Prefix host(net::Ipv4Addr::from_octets(10, 0, 1, 0), 32);
  EXPECT_EQ(index.count_in(host), 0u);
  index.for_each_in(host, [](net::Block24, BlockClass) { FAIL() << "visited sub-/24 range"; });
}

TEST(TelescopeIndexRollup, CountMatchesVisitEverywhere) {
  const serve::TelescopeIndex index(rollup_snapshot());
  for (const char* text : {"0.0.0.0/8", "10.0.0.0/15", "10.0.0.0/23", "10.0.2.0/24",
                           "255.255.255.0/24", "128.0.0.0/1"}) {
    const auto prefix = *net::Prefix::parse(text);
    std::size_t visits = 0;
    index.for_each_in(prefix, [&](net::Block24 block, BlockClass) {
      EXPECT_TRUE(prefix.contains(block)) << text;
      ++visits;
    });
    EXPECT_EQ(index.count_in(prefix), visits) << text;
  }
}

}  // namespace
}  // namespace mtscope
