// The snapshot subsystem end to end: round-trip fidelity over real
// inference runs (every seed x threads x shards cell must produce the same
// bytes and survive serialize -> parse -> re-serialize untouched),
// corruption robustness (truncation, bad magic, future versions, flipped
// bits -> typed errors, never crashes), TelescopeIndex lookup correctness
// against the membership sets it was built from, the SnapshotManager
// epoch-swap contract under concurrent readers, and fault injection on
// the atomic publish path (src/ingest/publish.hpp): every crash window
// must leave the target file untouched.  Under MTSCOPE_SANITIZE=thread
// this binary doubles as the serve-layer TSan smoke test.
#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "ingest/publish.hpp"
#include "pipeline/collector.hpp"
#include "pipeline/inference.hpp"
#include "pipeline/parallel.hpp"
#include "pipeline/spoof_tolerance.hpp"
#include "reference_ingest.hpp"
#include "serve/telescope_index.hpp"
#include "sim/simulation.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mtscope {
namespace {

using serve::BlockClass;
using serve::BlockEntry;
using serve::PrefixEntry;
using serve::RunMetadata;
using serve::TelescopeSnapshot;

// ---------------------------------------------------------------------------
// Real-pipeline fixtures, one per seed, built lazily and shared.

struct SeedBaseline {
  explicit SeedBaseline(std::uint64_t seed)
      : simulation(sim::SimConfig::tiny(seed)),
        ixps(pipeline::all_ixps(simulation)),
        stats(pipeline::collect_stats(simulation, ixps, days)) {
    pipeline::PipelineConfig config;
    config.volume_scale = simulation.config().volume_scale;
    config.spoof_tolerance_pkts =
        pipeline::compute_spoof_tolerance(stats, simulation.plan().unrouted_slash8s());
    engine.emplace(config, simulation.plan().rib(), registry);
    result = engine->infer(stats);
  }

  sim::Simulation simulation;
  std::vector<std::size_t> ixps;
  std::vector<int> days{0};
  pipeline::VantageStats stats;
  routing::SpecialPurposeRegistry registry = routing::SpecialPurposeRegistry::standard();
  std::optional<pipeline::InferenceEngine> engine;
  pipeline::InferenceResult result;
};

const SeedBaseline& baseline_for(std::uint64_t seed) {
  static std::map<std::uint64_t, SeedBaseline> cache;
  return cache.try_emplace(seed, seed).first->second;
}

/// Snapshot metadata is a function of the seed alone (fixed timestamp,
/// canonical thread/shard fields), so producer-configuration independence
/// of the *payload* shows up as byte-identical files.
RunMetadata canonical_meta(std::uint64_t seed) {
  RunMetadata meta;
  meta.seed = seed;
  meta.created_unix_s = 1'700'000'000;
  meta.source = "test tiny";
  return meta;
}

std::vector<std::uint8_t> snapshot_bytes_for(const SeedBaseline& base,
                                             unsigned threads, unsigned shards) {
  pipeline::CollectOptions options;
  options.threads = threads;
  options.shards = shards;
  const auto stats = pipeline::collect_stats(base.simulation, base.ixps, base.days, options);
  const auto result = pipeline::parallel_infer(*base.engine, stats, threads);
  const auto snapshot = serve::build_snapshot(result, base.simulation.plan().rib(),
                                              canonical_meta(base.simulation.config().seed));
  return serve::serialize_snapshot(snapshot);
}

// ---------------------------------------------------------------------------
// Round-trip fidelity over real inference runs.

class SnapshotRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotRoundTrip, ParseRestoresEveryField) {
  const SeedBaseline& base = baseline_for(GetParam());
  const auto snapshot = serve::build_snapshot(base.result, base.simulation.plan().rib(),
                                              canonical_meta(GetParam()));
  const auto bytes = serve::serialize_snapshot(snapshot);
  const auto restored = serve::parse_snapshot(bytes);
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  EXPECT_EQ(restored.value(), snapshot);
}

TEST_P(SnapshotRoundTrip, ReserializationIsByteIdentical) {
  const SeedBaseline& base = baseline_for(GetParam());
  const auto snapshot = serve::build_snapshot(base.result, base.simulation.plan().rib(),
                                              canonical_meta(GetParam()));
  const auto bytes = serve::serialize_snapshot(snapshot);
  auto restored = serve::parse_snapshot(bytes);
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  EXPECT_EQ(serve::serialize_snapshot(restored.value()), bytes);
}

TEST_P(SnapshotRoundTrip, CapturesTheInferenceResult) {
  const SeedBaseline& base = baseline_for(GetParam());
  const auto snapshot = serve::build_snapshot(base.result, base.simulation.plan().rib(),
                                              canonical_meta(GetParam()));
  EXPECT_EQ(snapshot.dark_count, base.result.dark.size());
  EXPECT_EQ(snapshot.unclean_count, base.result.unclean);
  EXPECT_EQ(snapshot.gray_count, base.result.gray);
  EXPECT_EQ(snapshot.funnel, base.result.funnel);
  EXPECT_EQ(snapshot.blocks.size(),
            base.result.dark.size() + base.result.unclean + base.result.gray);
  for (std::size_t i = 1; i < snapshot.blocks.size(); ++i) {
    ASSERT_LT(snapshot.blocks[i - 1].block_index(), snapshot.blocks[i].block_index());
  }
  for (std::size_t i = 1; i < snapshot.prefixes.size(); ++i) {
    ASSERT_LT(std::pair(snapshot.prefixes[i - 1].base, snapshot.prefixes[i - 1].length),
              std::pair(snapshot.prefixes[i].base, snapshot.prefixes[i].length));
  }
}

TEST_P(SnapshotRoundTrip, ProducerConfigurationDoesNotChangeTheBytes) {
  // The parallel engine is bit-identical to the serial path, so every
  // threads x shards cell must serialize to the exact same file.
  const SeedBaseline& base = baseline_for(GetParam());
  const auto serial = snapshot_bytes_for(base, 1, 1);
  for (const unsigned threads : {1u, 4u}) {
    for (const unsigned shards : {1u, 16u}) {
      EXPECT_EQ(snapshot_bytes_for(base, threads, shards), serial)
          << threads << " thread(s) x " << shards << " shard(s)";
    }
  }
}

TEST_P(SnapshotRoundTrip, BaselineStatsMatchPerRecordReferee) {
  // Every snapshot above is built from the default collect; pin that
  // collect to the per-record referee so the bytes rest on a checked store.
  const SeedBaseline& base = baseline_for(GetParam());
  referee::expect_matches_reference(
      base.stats, referee::reference_collect(base.simulation, base.ixps, base.days));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundTrip, ::testing::Values(42u, 7u, 1337u));

// ---------------------------------------------------------------------------
// TelescopeIndex correctness against the sets the snapshot came from.

TEST(TelescopeIndex, ClassifyAgreesWithMembershipSets) {
  const SeedBaseline& base = baseline_for(42);
  const serve::TelescopeIndex index(serve::build_snapshot(
      base.result, base.simulation.plan().rib(), canonical_meta(42)));

  std::size_t checked = 0;
  base.result.dark.for_each([&](net::Block24 block) {
    ASSERT_EQ(index.classify(block), BlockClass::kDark) << block.to_string();
    ++checked;
  });
  base.result.unclean_blocks.for_each([&](net::Block24 block) {
    ASSERT_EQ(index.classify(block), BlockClass::kUnclean) << block.to_string();
    ++checked;
  });
  base.result.gray_blocks.for_each([&](net::Block24 block) {
    ASSERT_EQ(index.classify(block), BlockClass::kGray) << block.to_string();
    ++checked;
  });
  EXPECT_EQ(checked, index.size());

  // Blocks in no membership set must miss.
  std::size_t misses = 0;
  for (std::uint32_t i = 0; i < (1u << 24) && misses < 1000; i += 4099) {
    const net::Block24 block(i);
    if (!base.result.dark.contains(block) && !base.result.unclean_blocks.contains(block) &&
        !base.result.gray_blocks.contains(block)) {
      ASSERT_EQ(index.classify(block), std::nullopt) << block.to_string();
      ++misses;
    }
  }
  EXPECT_GT(misses, 0u);
}

TEST(TelescopeIndex, LookupReturnsTheCoveringAnnouncement) {
  const SeedBaseline& base = baseline_for(42);
  const serve::TelescopeIndex index(serve::build_snapshot(
      base.result, base.simulation.plan().rib(), canonical_meta(42)));
  const auto& rib = base.simulation.plan().rib();

  std::size_t with_prefix = 0;
  for (const BlockEntry& entry : index.snapshot().blocks) {
    const net::Ipv4Addr addr = entry.block().first_address();
    const auto verdict = index.lookup(addr);
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(verdict->cls, entry.cls());
    const auto covering = rib.lookup(addr);
    if (covering.has_value()) {
      ASSERT_TRUE(verdict->prefix.has_value());
      EXPECT_EQ(*verdict->prefix, covering->first);
      ASSERT_TRUE(verdict->origin.has_value());
      EXPECT_EQ(*verdict->origin, covering->second.origin);
      ++with_prefix;
    } else {
      EXPECT_FALSE(verdict->prefix.has_value());
    }
  }
  EXPECT_GT(with_prefix, 0u);
}

TEST(TelescopeIndex, RangeQueriesMatchPointLookups) {
  const SeedBaseline& base = baseline_for(42);
  const serve::TelescopeIndex index(serve::build_snapshot(
      base.result, base.simulation.plan().rib(), canonical_meta(42)));

  // The whole space: every block, in ascending order.
  std::uint32_t previous = 0;
  std::size_t visited = 0;
  index.for_each_in(net::Prefix(net::Ipv4Addr(0), 0), [&](net::Block24 block, BlockClass cls) {
    if (visited > 0) {
      ASSERT_GT(block.index(), previous);
    }
    previous = block.index();
    ASSERT_EQ(index.classify(block), cls);
    ++visited;
  });
  EXPECT_EQ(visited, index.size());
  EXPECT_EQ(index.count_in(net::Prefix(net::Ipv4Addr(0), 0)), index.size());

  // A mid-size range around the first classified block.
  ASSERT_FALSE(index.snapshot().blocks.empty());
  const net::Block24 first = index.snapshot().blocks.front().block();
  const net::Prefix slash16(net::Ipv4Addr(first.first_address().value() & 0xffff0000u), 16);
  std::size_t manual = 0;
  for (std::uint32_t i = 0; i < 256; ++i) {
    if (index.classify(net::Block24(slash16.first_block24().index() + i)).has_value()) ++manual;
  }
  EXPECT_EQ(index.count_in(slash16), manual);
  EXPECT_GT(manual, 0u);

  // Prefixes longer than a /24 identify less than a block; nothing to visit.
  EXPECT_EQ(index.count_in(net::Prefix(net::Ipv4Addr(0), 25)), 0u);
}

// ---------------------------------------------------------------------------
// Corruption robustness on a small hand-built snapshot.

TelescopeSnapshot sample_snapshot() {
  TelescopeSnapshot s;
  s.meta = canonical_meta(9);
  s.meta.flows_ingested = 12345;
  s.funnel.seen = 100;
  s.funnel.after_tcp = 90;
  s.funnel.after_size = 80;
  s.funnel.after_source = 70;
  s.funnel.after_reserved = 60;
  s.funnel.after_routed = 50;
  s.funnel.after_volume = 40;
  s.prefixes = {
      {0x0a000000u, 65001, 8},   // 10.0.0.0/8
      {0x0a010000u, 65002, 16},  // 10.1.0.0/16
  };
  s.blocks = {
      BlockEntry::make(net::Block24(0x0a0000), BlockClass::kDark, 0),
      BlockEntry::make(net::Block24(0x0a0100), BlockClass::kGray, 1),
      BlockEntry::make(net::Block24(0x0a0101), BlockClass::kDark, 1),
      BlockEntry::make(net::Block24(0x0b0000), BlockClass::kUnclean, BlockEntry::kNoPrefix),
  };
  s.dark_count = 2;
  s.unclean_count = 1;
  s.gray_count = 1;
  return s;
}

void expect_error(std::span<const std::uint8_t> bytes, std::string_view code,
                  std::string_view context) {
  const auto parsed = serve::parse_snapshot(bytes);
  ASSERT_FALSE(parsed.ok()) << context;
  EXPECT_EQ(parsed.error().code, code)
      << context << ": " << parsed.error().to_string();
}

TEST(SnapshotCorruption, SampleRoundTrips) {
  const auto sample = sample_snapshot();
  const auto bytes = serve::serialize_snapshot(sample);
  const auto restored = serve::parse_snapshot(bytes);
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  EXPECT_EQ(restored.value(), sample);
}

TEST(SnapshotCorruption, TruncationAtEveryLengthIsATypedError) {
  const auto bytes = serve::serialize_snapshot(sample_snapshot());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto parsed = serve::parse_snapshot(std::span(bytes.data(), cut));
    ASSERT_FALSE(parsed.ok()) << "cut at " << cut;
    EXPECT_EQ(parsed.error().code, "snapshot.truncated")
        << "cut at " << cut << ": " << parsed.error().to_string();
  }
}

TEST(SnapshotCorruption, TrailingGarbageRejected) {
  auto bytes = serve::serialize_snapshot(sample_snapshot());
  bytes.push_back(0);
  expect_error(bytes, "snapshot.truncated", "one trailing byte");
}

TEST(SnapshotCorruption, BadMagicRejected) {
  auto bytes = serve::serialize_snapshot(sample_snapshot());
  bytes[0] ^= 0x01;
  expect_error(bytes, "snapshot.bad_magic", "flipped first byte");
}

TEST(SnapshotCorruption, NewlineTranslationRejected) {
  // A text-mode transport turning the magic's \r\n into \n shifts the
  // whole file; the PNG-style magic catches it immediately.
  auto bytes = serve::serialize_snapshot(sample_snapshot());
  bytes.erase(bytes.begin() + 6);  // drop the \r
  expect_error(bytes, "snapshot.bad_magic", "CRLF -> LF translation");
}

TEST(SnapshotCorruption, FutureVersionRejected) {
  auto bytes = serve::serialize_snapshot(sample_snapshot());
  bytes[8] = static_cast<std::uint8_t>(serve::kSnapshotVersion + 1);
  bytes[9] = 0;
  expect_error(bytes, "snapshot.unsupported_version", "version + 1");
  bytes[8] = 0;
  expect_error(bytes, "snapshot.unsupported_version", "version 0");
}

TEST(SnapshotCorruption, FlippedBitsAreCaughtByChecksums) {
  const auto clean = serve::serialize_snapshot(sample_snapshot());
  // One bit in the section table (sealed by table_crc)...
  auto bytes = clean;
  bytes[28] ^= 0x40;
  expect_error(bytes, "snapshot.bad_crc", "bit flip in the section table");
  // ...and one in each section payload (sealed by its own crc).
  const std::size_t payload_start = 24 + 4 * 24 + 4;
  for (const std::size_t at : {payload_start, payload_start + 60, clean.size() - 1}) {
    bytes = clean;
    bytes[at] ^= 0x10;
    expect_error(bytes, "snapshot.bad_crc", "bit flip at payload offset");
  }
}

TEST(SnapshotCorruption, MalformedPayloadsRejected) {
  {
    auto sample = sample_snapshot();
    std::swap(sample.blocks[1], sample.blocks[2]);  // break strict ordering
    expect_error(serve::serialize_snapshot(sample), "snapshot.bad_section",
                 "unsorted blocks");
  }
  {
    auto sample = sample_snapshot();
    sample.blocks[0].prefix_id = 7;  // dangling reference
    expect_error(serve::serialize_snapshot(sample), "snapshot.bad_section",
                 "dangling prefix id");
  }
  {
    auto sample = sample_snapshot();
    sample.dark_count = 3;  // disagrees with the block records
    expect_error(serve::serialize_snapshot(sample), "snapshot.bad_section",
                 "wrong class total");
  }
  {
    auto sample = sample_snapshot();
    sample.prefixes[1].base = 0x0a010001;  // not canonical for /16
    expect_error(serve::serialize_snapshot(sample), "snapshot.bad_section",
                 "non-canonical prefix");
  }
}

TEST(SnapshotCorruption, SeededSingleByteCorruptionsAllFailTyped) {
  // CRC32 detects every single-byte error, and the format seals every byte
  // — header+table under table_crc, each payload under its section crc —
  // so no single-byte corruption anywhere in the file may parse.  Which
  // typed error fires depends on the byte hit (magic, version, size field,
  // crc); all of them must be snapshot.* — never a crash, never success.
  const auto clean = serve::serialize_snapshot(sample_snapshot());
  util::Rng rng(0xc0ffee);
  for (int i = 0; i < 512; ++i) {
    auto bytes = clean;
    const std::size_t at = rng.uniform(bytes.size());
    const auto flip = static_cast<std::uint8_t>(1 + rng.uniform(255));
    bytes[at] ^= flip;
    const auto parsed = serve::parse_snapshot(bytes);
    ASSERT_FALSE(parsed.ok()) << "byte " << at << " ^= " << int{flip} << " parsed clean";
    EXPECT_TRUE(parsed.error().code.starts_with("snapshot."))
        << "byte " << at << ": " << parsed.error().to_string();
  }
}

TEST(SnapshotFile, WriteReadRoundTrip) {
  const auto sample = sample_snapshot();
  const std::string path = ::testing::TempDir() + "mtscope_test_snapshot.snap";
  const auto written = serve::write_snapshot_file(sample, path);
  ASSERT_TRUE(written.ok()) << written.error().to_string();
  EXPECT_EQ(written.value(), serve::serialize_snapshot(sample).size());
  const auto restored = serve::read_snapshot_file(path);
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  EXPECT_EQ(restored.value(), sample);
  std::remove(path.c_str());
}

TEST(SnapshotFile, MissingFileIsAnIoError) {
  const auto result = serve::read_snapshot_file("/nonexistent/mtscope.snap");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "snapshot.io");
}

// ---------------------------------------------------------------------------
// Atomic publish fault injection: every crash window in
// ingest::publish_snapshot must leave the target path untouched, and the
// one failure it cannot prevent (silent bit rot) must be caught by the
// reader's CRCs instead.

std::optional<std::vector<std::uint8_t>> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

TelescopeSnapshot variant_snapshot() {
  auto s = sample_snapshot();
  s.blocks.push_back(
      BlockEntry::make(net::Block24(0x0c0000), BlockClass::kDark, BlockEntry::kNoPrefix));
  ++s.dark_count;
  return s;
}

struct PublishFixture : ::testing::Test {
  const std::string path = ::testing::TempDir() + "mtscope_publish_fault.snap";
  const std::string temp = ingest::publish_temp_path(path);

  void TearDown() override {
    std::remove(path.c_str());
    std::remove(temp.c_str());
  }
};

TEST_F(PublishFixture, CleanPublishIsCompleteAndLeavesNoTemp) {
  const auto sample = sample_snapshot();
  const auto published = ingest::publish_snapshot(sample, path);
  ASSERT_TRUE(published.ok()) << published.error().to_string();
  const auto expected = serve::serialize_snapshot(sample);
  EXPECT_EQ(published.value(), expected.size());
  EXPECT_EQ(file_bytes(path), expected);
  EXPECT_FALSE(file_bytes(temp).has_value()) << "temp file left behind";
}

TEST_F(PublishFixture, TornWriteLeavesTheTargetUntouched) {
  // ENOSPC / power cut mid-write: the temp file stops short, the rename
  // never happens, and whatever was being served keeps being served.
  const auto old = sample_snapshot();
  ASSERT_TRUE(ingest::publish_snapshot(old, path).ok());
  const auto old_bytes = file_bytes(path);

  ingest::PublishFaults faults;
  for (const std::size_t cut : {std::size_t{0}, std::size_t{10}, std::size_t{100}}) {
    faults.truncate_after_bytes = cut;
    const auto torn = ingest::publish_snapshot(variant_snapshot(), path, &faults);
    ASSERT_FALSE(torn.ok()) << "cut at " << cut;
    EXPECT_EQ(torn.error().code, "publish.torn") << "cut at " << cut;
    EXPECT_EQ(file_bytes(path), old_bytes) << "cut at " << cut;
  }

  // Recovery: the next clean publish overwrites the stale temp and swaps.
  const auto recovered = ingest::publish_snapshot(variant_snapshot(), path);
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(file_bytes(path), serve::serialize_snapshot(variant_snapshot()));
}

TEST_F(PublishFixture, TornFirstPublishLeavesNoTargetAtAll) {
  ingest::PublishFaults faults;
  faults.truncate_after_bytes = 10;
  const auto torn = ingest::publish_snapshot(sample_snapshot(), path, &faults);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.error().code, "publish.torn");
  EXPECT_FALSE(file_bytes(path).has_value()) << "torn publish materialised the target";
}

TEST_F(PublishFixture, CrashBeforeRenameLeavesDurableTempAndOldTarget) {
  // The narrowest window: the image is fully written and fsynced but the
  // swap has not happened.  The target must be the old file; the temp must
  // be the complete new image (durable, parseable), and the next publish
  // must reclaim it.
  const auto old = sample_snapshot();
  ASSERT_TRUE(ingest::publish_snapshot(old, path).ok());

  ingest::PublishFaults faults;
  faults.fail_before_rename = true;
  const auto crashed = ingest::publish_snapshot(variant_snapshot(), path, &faults);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.error().code, "publish.crashed");
  EXPECT_EQ(file_bytes(path), serve::serialize_snapshot(old));

  const auto staged = file_bytes(temp);
  ASSERT_TRUE(staged.has_value());
  EXPECT_EQ(*staged, serve::serialize_snapshot(variant_snapshot()));
  const auto parsed = serve::parse_snapshot(*staged);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();

  const auto recovered = ingest::publish_snapshot(variant_snapshot(), path);
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(file_bytes(path), serve::serialize_snapshot(variant_snapshot()));
  EXPECT_FALSE(file_bytes(temp).has_value());
}

TEST_F(PublishFixture, SilentCorruptionIsCaughtByTheReader) {
  // Bit rot between serialize and write is the one fault the publish path
  // cannot see; it "succeeds", and the defence is the reader's checksums.
  ingest::PublishFaults faults;
  faults.corrupt_first_byte = true;
  const auto published = ingest::publish_snapshot(sample_snapshot(), path, &faults);
  ASSERT_TRUE(published.ok()) << published.error().to_string();

  const auto read = serve::read_snapshot_file(path);
  ASSERT_FALSE(read.ok()) << "corrupt snapshot parsed clean";
  EXPECT_TRUE(read.error().code.starts_with("snapshot."))
      << read.error().to_string();
}

TEST_F(PublishFixture, UnwritableDirectoryIsATypedIoError) {
  const auto result =
      ingest::publish_snapshot(sample_snapshot(), "/nonexistent/dir/mtscope.snap");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "publish.io");
}

TEST(Snapshot, ClassNamesAreStable) {
  EXPECT_EQ(serve::to_string(BlockClass::kDark), "dark");
  EXPECT_EQ(serve::to_string(BlockClass::kUnclean), "unclean");
  EXPECT_EQ(serve::to_string(BlockClass::kGray), "gray");
}

// ---------------------------------------------------------------------------
// SnapshotManager: epoch-swap under concurrent readers.

TEST(SnapshotManager, EpochAdvancesPerInstall) {
  serve::SnapshotManager manager;
  EXPECT_EQ(manager.current(), nullptr);
  EXPECT_EQ(manager.epoch(), 0u);
  const auto index = std::make_shared<const serve::TelescopeIndex>(sample_snapshot());
  EXPECT_EQ(manager.install(index), 1u);
  EXPECT_EQ(manager.current(), index);
  EXPECT_EQ(manager.install(index), 2u);
  EXPECT_EQ(manager.epoch(), 2u);
}

TEST(SnapshotManager, ConcurrentReadersSurviveHotSwaps) {
  // Readers hammer classify() through current() while a writer swaps
  // between two live indexes; every observation must be internally
  // consistent with one of the two.  TSan (tsan_serve_smoke) proves the
  // absence of data races; the assertions prove the absence of torn reads.
  auto variant = sample_snapshot();
  variant.blocks.push_back(
      BlockEntry::make(net::Block24(0x0c0000), BlockClass::kDark, BlockEntry::kNoPrefix));
  ++variant.dark_count;
  const auto a = std::make_shared<const serve::TelescopeIndex>(sample_snapshot());
  const auto b = std::make_shared<const serve::TelescopeIndex>(variant);

  serve::SnapshotManager manager;
  manager.install(a);

  constexpr int kSwaps = 2000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> observations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      const net::Ipv4Addr probe(0x0c000001);  // present in b, absent in a
      // Keep observing until the writer is done AND this reader has seen
      // something — on a single core the whole swap loop can complete
      // before any reader is first scheduled.
      std::uint64_t mine = 0;
      while (!stop.load(std::memory_order_relaxed) || mine == 0) {
        const auto index = manager.current();
        ASSERT_NE(index, nullptr);
        const bool in_b = index->size() == b->size();
        EXPECT_EQ(index->classify(probe).has_value(), in_b);
        EXPECT_EQ(index->classify(net::Block24(0x0a0000)), BlockClass::kDark);
        ++mine;
        observations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < kSwaps; ++i) {
    manager.install((i % 2 == 0) ? b : a);
    if (i % 64 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(manager.epoch(), static_cast<std::uint64_t>(kSwaps) + 1);
  EXPECT_GT(observations.load(), 0u);
}

}  // namespace
}  // namespace mtscope
