// Differential suite: the sharded parallel collect/infer engine must
// reproduce the per-record referee (tests/reference_ingest.hpp) store for
// store, and the funnel over the default collect — same funnel counts,
// same dark/unclean/gray totals, and the exact same Block24Set membership
// — for every thread/shard/batch configuration.  Under
// MTSCOPE_SANITIZE=thread this binary doubles as the ThreadSanitizer smoke
// test of the collector.
#include <gtest/gtest.h>

#include <future>
#include <ostream>
#include <utility>
#include <vector>

#include "flow/flow_batch.hpp"
#include "pipeline/collector.hpp"
#include "pipeline/inference.hpp"
#include "pipeline/parallel.hpp"
#include "pipeline/shard_router.hpp"
#include "pipeline/spoof_tolerance.hpp"
#include "reference_ingest.hpp"
#include "sim/simulation.hpp"
#include "telemetry/ecdf.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mtscope {
namespace {

struct ParallelConfig {
  unsigned threads;
  unsigned shards;
};

void PrintTo(const ParallelConfig& config, std::ostream* os) {
  *os << config.threads << " thread(s) x " << config.shards << " shard(s)";
}

// The shared workload: a multi-IXP, multi-day tiny universe, folded once by
// the per-record referee, then collected with the default options (one
// batched worker, one shard) and inferred once.  The default collect is
// checked against the referee; every other configuration must reproduce
// the referee and the default collect's funnel result.
struct Baseline {
  sim::Simulation simulation{sim::SimConfig::tiny(101)};
  std::vector<std::size_t> ixps = pipeline::all_ixps(simulation);
  std::vector<int> days{0, 1, 2};
  referee::ReferenceStats reference = referee::reference_collect(simulation, ixps, days);
  pipeline::VantageStats stats = pipeline::collect_stats(simulation, ixps, days);
  routing::SpecialPurposeRegistry registry = routing::SpecialPurposeRegistry::standard();
  pipeline::PipelineConfig config = [this] {
    pipeline::PipelineConfig c;
    c.volume_scale = simulation.config().volume_scale;
    c.spoof_tolerance_pkts =
        pipeline::compute_spoof_tolerance(stats, simulation.plan().unrouted_slash8s());
    return c;
  }();
  pipeline::InferenceEngine engine{config, simulation.plan().rib(), registry};
  pipeline::InferenceResult result = engine.infer(stats);
};

const Baseline& baseline() {
  static const Baseline shared;
  return shared;
}

void expect_identical(const pipeline::InferenceResult& actual,
                      const pipeline::InferenceResult& expected) {
  EXPECT_EQ(actual.funnel, expected.funnel);
  EXPECT_EQ(actual.unclean, expected.unclean);
  EXPECT_EQ(actual.gray, expected.gray);
  EXPECT_TRUE(actual.dark == expected.dark);  // full bitmap comparison
}

/// Deep, order-insensitive equality of two stores built by the engine:
/// every block row of `expected` exists in `actual` with identical
/// counters, tx host bitmap and per-IP run.  Row *order* is the one thing
/// the partitioning may legally change (rows append in shard-fold order,
/// not dataset order); everything the rows contain may not.
void expect_stats_identical(const pipeline::VantageStats& actual,
                            const pipeline::VantageStats& expected) {
  EXPECT_EQ(actual.flows_ingested(), expected.flows_ingested());
  EXPECT_EQ(actual.day_count(), expected.day_count());
  ASSERT_EQ(actual.blocks().size(), expected.blocks().size());
  for (const auto row : expected.blocks()) {
    const auto mine = actual.blocks().find(row.block());
    ASSERT_TRUE(static_cast<bool>(mine)) << "missing block " << row.block().index();
    EXPECT_EQ(mine.rx_packets(), row.rx_packets());
    EXPECT_EQ(mine.rx_tcp_packets(), row.rx_tcp_packets());
    EXPECT_EQ(mine.rx_tcp_bytes(), row.rx_tcp_bytes());
    EXPECT_EQ(mine.rx_est_packets(), row.rx_est_packets());
    EXPECT_EQ(mine.tx_packets(), row.tx_packets());
    EXPECT_TRUE(mine.tx_host_bits() == row.tx_host_bits());
    const auto my_ips = mine.ips();
    const auto their_ips = row.ips();
    ASSERT_EQ(my_ips.size(), their_ips.size());
    for (std::size_t i = 0; i < my_ips.size(); ++i) {
      EXPECT_EQ(my_ips[i].host, their_ips[i].host);
      EXPECT_EQ(my_ips[i].packets, their_ips[i].packets);
      EXPECT_EQ(my_ips[i].tcp_packets, their_ips[i].tcp_packets);
      EXPECT_EQ(my_ips[i].tcp_bytes, their_ips[i].tcp_bytes);
    }
  }
}

TEST(ParallelBaseline, DefaultCollectMatchesPerRecordReferee) {
  referee::expect_matches_reference(baseline().stats, baseline().reference);
}

class ParallelDifferential : public ::testing::TestWithParam<ParallelConfig> {};

TEST_P(ParallelDifferential, CollectMatchesSerialStats) {
  const Baseline& base = baseline();
  const pipeline::CollectOptions options{GetParam().threads, GetParam().shards};
  const auto stats =
      pipeline::collect_stats(base.simulation, base.ixps, base.days, options);
  referee::expect_matches_reference(stats, base.reference);
}

TEST_P(ParallelDifferential, CollectInferMatchesSerialResult) {
  const Baseline& base = baseline();
  const pipeline::CollectOptions options{GetParam().threads, GetParam().shards};
  const auto stats =
      pipeline::collect_stats(base.simulation, base.ixps, base.days, options);
  const auto result = pipeline::parallel_infer(base.engine, stats, GetParam().threads);
  expect_identical(result, base.result);
}

TEST_P(ParallelDifferential, ParallelInferOverSerialStats) {
  // Decouples the two halves: the range-partitioned funnel alone must
  // reproduce the one-thread result on the default-collected stats.
  const Baseline& base = baseline();
  const auto result =
      pipeline::parallel_infer(base.engine, base.stats, GetParam().threads);
  expect_identical(result, base.result);
}

INSTANTIATE_TEST_SUITE_P(ThreadShardGrid, ParallelDifferential,
                         ::testing::Values(ParallelConfig{1, 1}, ParallelConfig{1, 16},
                                           ParallelConfig{2, 4}, ParallelConfig{3, 5},
                                           ParallelConfig{4, 1}, ParallelConfig{4, 16},
                                           ParallelConfig{8, 16}));

// --- batched differential grid ---------------------------------------------
// The batch size is the one knob the thread/shard grid above does not
// move.  Batch 1 degenerates the SoA stage to per-record work (the decode
// arithmetic alone must carry bit-identicality), 4096 is the production
// default, 64 exercises many partially-filled router segments per
// dataset.  Crossed with threads and shards this is the full staged
// pipeline: parse -> route -> shard-affine insert -> disjoint merge.

struct BatchedConfig {
  unsigned batch;
  unsigned threads;
  unsigned shards;
};

void PrintTo(const BatchedConfig& config, std::ostream* os) {
  *os << "batch " << config.batch << " x " << config.threads << " thread(s) x "
      << config.shards << " shard(s)";
}

std::vector<BatchedConfig> batched_grid() {
  std::vector<BatchedConfig> grid;
  for (const unsigned batch : {1u, 64u, 4096u}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      for (const unsigned shards : {1u, 4u, 16u}) grid.push_back({batch, threads, shards});
    }
  }
  return grid;
}

class BatchedDifferential : public ::testing::TestWithParam<BatchedConfig> {};

TEST_P(BatchedDifferential, CollectStoreAndInferMatchSerial) {
  const Baseline& base = baseline();
  const pipeline::CollectOptions options{GetParam().threads, GetParam().shards, nullptr,
                                         GetParam().batch};
  const auto stats =
      pipeline::collect_stats(base.simulation, base.ixps, base.days, options);
  referee::expect_matches_reference(stats, base.reference);
  expect_identical(pipeline::parallel_infer(base.engine, stats, GetParam().threads),
                   base.result);
}

INSTANTIATE_TEST_SUITE_P(BatchThreadShardGrid, BatchedDifferential,
                         ::testing::ValuesIn(batched_grid()));

// --- merge disjointness ------------------------------------------------------
// The collector's contention-free merge rests on one claim: rows dealt by
// Block24 % shards make the shard columns disjoint key spaces, so
// per-shard folds never touch the same block and the final cross-shard
// fold is pure concatenation with an exact row total.  These tests state
// the claim directly against the merge primitive, outside the collector.

std::vector<flow::FlowRecord> merge_test_records(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<flow::FlowRecord> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    flow::FlowRecord r;
    // A small /16 so blocks repeat and per-IP runs grow past the inline
    // buffer — the merge paths with actual content to get wrong.
    r.key.src = net::Ipv4Addr(0x0a640000u + static_cast<std::uint32_t>(rng.uniform(1u << 14)));
    r.key.dst = net::Ipv4Addr(0xc6336400u + static_cast<std::uint32_t>(rng.uniform(1u << 14)));
    r.key.proto = rng.chance(0.6) ? net::IpProto::kTcp : net::IpProto::kUdp;
    r.packets = 1 + rng.uniform(5);
    r.bytes = r.packets * (40 + rng.uniform(1000));
    out.push_back(r);
  }
  return out;
}

TEST(MergeDisjointness, ShardedBuildFoldsToDirectBuild) {
  constexpr unsigned kShards = 8;
  constexpr std::uint32_t kRate = 100;
  const auto records = merge_test_records(20'000, 71);

  referee::ReferenceStats direct;
  direct.add_flows(records, kRate, /*day=*/0);

  // The collector's exact mechanism: batch -> route -> shard-affine adds.
  std::vector<pipeline::VantageStats> parts(kShards);
  parts[0].note_day(0);
  flow::FlowBatch batch;
  pipeline::ShardRouter router;
  const std::span<const flow::FlowRecord> all(records);
  for (std::size_t first = 0; first < all.size(); first += 512) {
    batch.decode(all.subspan(first, std::min<std::size_t>(512, all.size() - first)), kRate);
    router.route(batch, kShards);
    for (unsigned s = 0; s < kShards; ++s) {
      parts[s].add_batch(batch, router.rx_rows(s), router.tx_rows(s), 0);
    }
  }

  // Disjointness itself: a block lives in exactly the shard its key
  // selects, so the shard row counts sum to the merged row count.
  std::size_t total_rows = 0;
  for (unsigned s = 0; s < kShards; ++s) {
    for (const auto row : parts[s].blocks()) {
      EXPECT_EQ(row.block().index() % kShards, s);
    }
    total_rows += parts[s].blocks().size();
  }
  EXPECT_EQ(total_rows, direct.blocks.size());

  std::vector<const pipeline::VantageStats*> rest;
  for (unsigned s = 1; s < kShards; ++s) rest.push_back(&parts[s]);
  const pipeline::VantageStats merged =
      pipeline::merge_stats(std::move(parts[0]), rest, total_rows);
  referee::expect_matches_reference(merged, direct);
}

TEST(MergeDisjointness, FoldShapeDoesNotChangeResult) {
  constexpr std::uint32_t kRate = 50;
  const auto records = merge_test_records(6'000, 73);
  const std::span<const flow::FlowRecord> all(records);

  // Three overlapping parts (NOT disjoint): merge must still be
  // order-free because every quantity is a sum / OR / sorted union.
  pipeline::VantageStats a, b, c;
  a.add_flows(all.subspan(0, 3'000), kRate, 0);
  b.add_flows(all.subspan(2'000, 3'000), kRate, 1);
  c.add_flows(all.subspan(1'000, 2'000), kRate, 0);

  const std::vector<const pipeline::VantageStats*> bc{&b, &c};
  const std::vector<const pipeline::VantageStats*> ba{&b, &a};
  const pipeline::VantageStats left = pipeline::merge_stats(a, bc);
  const pipeline::VantageStats right = pipeline::merge_stats(c, ba);
  expect_stats_identical(left, right);
}

TEST(MergeDisjointness, ExactReserveDoesNotChangeResult) {
  // The collector passes the exact disjoint row total so the output index
  // is built once; the reserve is an optimization, never a semantic.
  constexpr std::uint32_t kRate = 10;
  const auto records = merge_test_records(4'000, 79);
  pipeline::VantageStats a, b;
  a.add_flows(std::span(records).first(2'000), kRate, 0);
  b.add_flows(std::span(records).last(2'000), kRate, 0);

  const std::vector<const pipeline::VantageStats*> rest{&b};
  const pipeline::VantageStats no_reserve = pipeline::merge_stats(a, rest);
  const pipeline::VantageStats generous =
      pipeline::merge_stats(a, rest, a.blocks().size() + b.blocks().size());
  expect_stats_identical(no_reserve, generous);
}

TEST(ParallelEdgeCases, NoDatasets) {
  const Baseline& base = baseline();
  const std::vector<std::size_t> no_ixps;
  const std::vector<int> no_days;
  const pipeline::CollectOptions options{4, 8};
  const auto stats =
      pipeline::collect_stats(base.simulation, no_ixps, no_days, options);
  EXPECT_EQ(stats.flows_ingested(), 0u);
  EXPECT_EQ(stats.day_count(), 0);
  EXPECT_TRUE(stats.blocks().empty());

  const auto result = pipeline::parallel_infer(base.engine, stats, 4);
  EXPECT_EQ(result.funnel.seen, 0u);
  EXPECT_EQ(result.dark.size(), 0u);
}

TEST(ParallelEdgeCases, MoreThreadsThanWork) {
  // 16 threads for 2 datasets / tiny block counts must neither deadlock
  // nor change the result.
  const Baseline& base = baseline();
  const std::vector<int> one_day{0};
  const auto one_worker =
      pipeline::collect_stats(base.simulation, base.ixps, one_day);
  const pipeline::CollectOptions options{16, 3};
  const auto stats =
      pipeline::collect_stats(base.simulation, base.ixps, one_day, options);
  EXPECT_EQ(stats.flows_ingested(), one_worker.flows_ingested());
  EXPECT_EQ(stats.blocks().size(), one_worker.blocks().size());
  expect_identical(pipeline::parallel_infer(base.engine, stats, 16),
                   base.engine.infer(one_worker));
}

TEST(ConcurrentEcdfReads, ConstAccessorsAreThreadSafe) {
  // Regression for the lazy-sort data race: the first const read after an
  // add() used to sort samples_ without synchronisation, so two threads
  // querying the same const Ecdf both mutated it.  The accessors now
  // synchronise (double-checked atomic + mutex), which this test exercises
  // by hammering a freshly-unsorted Ecdf from every pool thread at once —
  // under MTSCOPE_SANITIZE=thread (the tsan_parallel_smoke target) TSan
  // flags any regression.
  telemetry::Ecdf shared;
  for (int i = 999; i >= 0; --i) shared.add(static_cast<double>(i));
  const telemetry::Ecdf& view = shared;

  constexpr unsigned kThreads = 8;
  util::ThreadPool pool(kThreads);
  std::vector<double> got(kThreads * 4, -1.0);  // one slot per task, no sharing
  std::vector<std::future<void>> jobs;
  jobs.reserve(got.size());
  for (unsigned t = 0; t < kThreads; ++t) {
    double* slot = &got[t * 4];
    jobs.push_back(pool.submit([&view, slot] { slot[0] = view.fraction_at_most(500.0); }));
    jobs.push_back(pool.submit([&view, slot] { slot[1] = view.quantile(0.25); }));
    jobs.push_back(pool.submit([&view, slot] { slot[2] = view.min(); }));
    jobs.push_back(pool.submit([&view, slot] { slot[3] = view.max(); }));
  }
  for (auto& job : jobs) job.get();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(got[t * 4], 501.0 / 1000.0);
    EXPECT_DOUBLE_EQ(got[t * 4 + 1], 249.0);
    EXPECT_DOUBLE_EQ(got[t * 4 + 2], 0.0);
    EXPECT_DOUBLE_EQ(got[t * 4 + 3], 999.0);
  }
}

}  // namespace
}  // namespace mtscope
