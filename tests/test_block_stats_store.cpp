// BlockStatsStore unit + property tests: the open-addressing index, the
// inline->arena per-IP growth path, linear sorted-run merges, deep-copy
// semantics, and — the load-bearing part — a randomized differential
// against a map-backed reference model over generated flow batches.  Under
// MTSCOPE_SANITIZE=address this binary doubles as the asan_store_smoke
// ctest (arena growth, spill, and merge all run here).
#include "pipeline/block_stats_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "util/rng.hpp"

namespace mtscope::pipeline {
namespace {

net::Block24 block(std::uint32_t index) { return net::Block24(index); }

/// One flow's destination-side update through the production insert: a
/// one-row add_rx_rows run.
void add_rx(BlockStatsStore& store, net::Block24 b, std::uint8_t host, std::uint64_t packets,
            std::uint64_t est_packets, bool tcp, std::uint64_t tcp_bytes) {
  const std::uint32_t row = 0;
  const std::uint32_t key = b.index();
  const std::uint8_t is_tcp = tcp ? 1 : 0;
  store.add_rx_rows({&row, 1}, {&key, 1}, {&host, 1}, {&packets, 1}, {&est_packets, 1},
                    {&is_tcp, 1}, {&tcp_bytes, 1});
}

TEST(BlockStatsStore, EmptyStore) {
  const BlockStatsStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_FALSE(store.find(block(1)));
  EXPECT_EQ(store.begin(), store.end());
  EXPECT_DOUBLE_EQ(store.load_factor(), 0.0);
  EXPECT_EQ(store.arena_spills(), 0u);
}

TEST(BlockStatsStore, AddRxAccumulatesColumns) {
  BlockStatsStore store;
  add_rx(store, block(7), 5, 2, 200, true, 80);
  add_rx(store, block(7), 5, 1, 100, true, 48);
  add_rx(store, block(7), 9, 3, 300, false, 0);

  EXPECT_EQ(store.size(), 1u);
  const BlockStatsStore::ConstRow row = store.find(block(7));
  ASSERT_TRUE(row);
  EXPECT_EQ(row.block().index(), 7u);
  EXPECT_EQ(row.rx_packets(), 6u);
  EXPECT_EQ(row.rx_tcp_packets(), 3u);
  EXPECT_EQ(row.rx_tcp_bytes(), 128u);
  EXPECT_EQ(row.rx_est_packets(), 600u);
  EXPECT_EQ(row.tx_packets(), 0u);
  ASSERT_EQ(row.ips().size(), 2u);
  EXPECT_EQ(row.ips()[0].host, 5);
  EXPECT_EQ(row.ips()[0].packets, 3u);
  EXPECT_EQ(row.ips()[0].tcp_packets, 3u);
  EXPECT_EQ(row.ips()[1].host, 9);
  EXPECT_EQ(row.ips()[1].tcp_packets, 0u);
  EXPECT_NEAR(row.avg_tcp_size(), 128.0 / 3.0, 1e-9);
}

TEST(BlockStatsStore, AddTxSetsBitmap) {
  BlockStatsStore store;
  store.add_tx(block(3), 0, 4);
  store.add_tx(block(3), 63, 1);
  store.add_tx(block(3), 64, 1);
  store.add_tx(block(3), 255, 1);

  const BlockStatsStore::ConstRow row = store.find(block(3));
  ASSERT_TRUE(row);
  EXPECT_EQ(row.tx_packets(), 7u);
  EXPECT_EQ(row.rx_packets(), 0u);
  EXPECT_TRUE(row.host_sent(0));
  EXPECT_TRUE(row.host_sent(63));
  EXPECT_TRUE(row.host_sent(64));
  EXPECT_TRUE(row.host_sent(255));
  EXPECT_FALSE(row.host_sent(128));
}

TEST(BlockStatsStore, IterationIsInsertionOrder) {
  BlockStatsStore store;
  const std::uint32_t keys[] = {900, 1, 44, 0xffffff, 17};
  for (const std::uint32_t k : keys) add_rx(store, block(k), 0, 1, 1, false, 0);

  std::vector<std::uint32_t> seen;
  for (const BlockStatsStore::ConstRow row : store) seen.push_back(row.block().index());
  ASSERT_EQ(seen.size(), 5u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], keys[i]);
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store.row(i).block().index(), keys[i]);
  }
}

TEST(BlockStatsStore, GrowthRehashKeepsEveryKeyFindable) {
  BlockStatsStore store;
  constexpr std::uint32_t kBlocks = 10'000;  // many doublings past the initial 16
  for (std::uint32_t k = 0; k < kBlocks; ++k) {
    add_rx(store, block(k * 37 % (1u << 24)), static_cast<std::uint8_t>(k), 1, 10, true, 40);
  }
  EXPECT_EQ(store.size(), kBlocks);
  EXPECT_LE(store.load_factor(), 7.0 / 8.0);
  EXPECT_GT(store.load_factor(), 0.0);
  for (std::uint32_t k = 0; k < kBlocks; ++k) {
    EXPECT_TRUE(store.find(block(k * 37 % (1u << 24)))) << k;
  }
  EXPECT_GT(store.memory_bytes(), 0u);
}

TEST(BlockStatsStore, InlineRunSpillsToArenaAndStaysSorted) {
  BlockStatsStore store;
  EXPECT_EQ(store.arena_spills(), 0u);

  // kInlineIps hosts stay inline…
  add_rx(store, block(1), 10, 1, 1, false, 0);
  add_rx(store, block(1), 5, 1, 1, false, 0);
  EXPECT_EQ(store.arena_spills(), 0u);
  // …the third spills to the arena.
  add_rx(store, block(1), 7, 1, 1, false, 0);
  EXPECT_EQ(store.arena_spills(), 1u);
  EXPECT_GE(store.arena_allocated_ips(), 3u);

  const BlockStatsStore::ConstRow row = store.find(block(1));
  ASSERT_EQ(row.ips().size(), 3u);
  EXPECT_EQ(row.ips()[0].host, 5);
  EXPECT_EQ(row.ips()[1].host, 7);
  EXPECT_EQ(row.ips()[2].host, 10);
}

TEST(BlockStatsStore, RunGrowsToAllHostsOfTheBlock) {
  // Worst case: every host of the /24 observed — regrows walk 8 -> 256 and
  // the abandoned capacities are accounted as waste.
  BlockStatsStore store;
  for (int host = 255; host >= 0; --host) {
    add_rx(store, block(2), static_cast<std::uint8_t>(host), 1, 1, true, 40);
  }
  const BlockStatsStore::ConstRow row = store.find(block(2));
  ASSERT_EQ(row.ips().size(), 256u);
  for (int host = 0; host < 256; ++host) {
    EXPECT_EQ(row.ips()[static_cast<std::size_t>(host)].host, host);
  }
  EXPECT_GT(store.arena_spills(), 1u);
  EXPECT_GT(store.arena_wasted_ips(), 0u);
  EXPECT_GT(store.arena_allocated_ips(), store.arena_wasted_ips());
}

TEST(BlockStatsStore, MergeDisjointAppends) {
  BlockStatsStore a;
  add_rx(a, block(1), 1, 1, 10, true, 40);
  BlockStatsStore b;
  add_rx(b, block(2), 2, 2, 20, false, 0);
  b.add_tx(block(3), 9, 5);
  a.merge(b);

  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.find(block(1)));
  EXPECT_TRUE(a.find(block(2)));
  EXPECT_EQ(a.find(block(3)).tx_packets(), 5u);
}

TEST(BlockStatsStore, MergeSharedRowsAddsCountersAndUnionsRuns) {
  BlockStatsStore a;
  add_rx(a, block(1), 1, 1, 10, true, 40);
  add_rx(a, block(1), 200, 2, 20, false, 0);
  a.add_tx(block(1), 4, 3);
  BlockStatsStore b;
  add_rx(b, block(1), 1, 5, 50, true, 200);
  add_rx(b, block(1), 7, 1, 10, false, 0);
  b.add_tx(block(1), 100, 2);
  a.merge(b);

  const BlockStatsStore::ConstRow row = a.find(block(1));
  ASSERT_TRUE(row);
  EXPECT_EQ(row.rx_packets(), 9u);
  EXPECT_EQ(row.rx_tcp_packets(), 6u);
  EXPECT_EQ(row.rx_tcp_bytes(), 240u);
  EXPECT_EQ(row.tx_packets(), 5u);
  EXPECT_TRUE(row.host_sent(4));
  EXPECT_TRUE(row.host_sent(100));
  ASSERT_EQ(row.ips().size(), 3u);  // {1, 7, 200}, host 1 combined
  EXPECT_EQ(row.ips()[0].host, 1);
  EXPECT_EQ(row.ips()[0].packets, 6u);
  EXPECT_EQ(row.ips()[0].tcp_bytes, 240u);
  EXPECT_EQ(row.ips()[1].host, 7);
  EXPECT_EQ(row.ips()[2].host, 200);
}

TEST(BlockStatsStore, MergeSpilledIntoSpilledRun) {
  BlockStatsStore a;
  BlockStatsStore b;
  for (int host = 0; host < 40; host += 2) {   // evens in a
    add_rx(a, block(9), static_cast<std::uint8_t>(host), 1, 1, false, 0);
  }
  for (int host = 1; host < 40; host += 2) {   // odds in b
    add_rx(b, block(9), static_cast<std::uint8_t>(host), 1, 1, false, 0);
  }
  a.merge(b);
  const BlockStatsStore::ConstRow row = a.find(block(9));
  ASSERT_EQ(row.ips().size(), 40u);
  for (int host = 0; host < 40; ++host) {
    EXPECT_EQ(row.ips()[static_cast<std::size_t>(host)].host, host);
  }
}

TEST(BlockStatsStore, CopyIsDeep) {
  BlockStatsStore original;
  for (int host = 0; host < 10; ++host) {  // spilled run in the arena
    add_rx(original, block(5), static_cast<std::uint8_t>(host), 1, 1, true, 40);
  }
  BlockStatsStore copy = original;
  // Mutating the copy (including regrowing its run) must not disturb the
  // original, and vice versa — the spill pointers live in separate arenas.
  for (int host = 10; host < 60; ++host) {
    add_rx(copy, block(5), static_cast<std::uint8_t>(host), 7, 7, false, 0);
  }
  add_rx(original, block(5), 0, 100, 100, false, 0);

  EXPECT_EQ(copy.find(block(5)).ips().size(), 60u);
  EXPECT_EQ(copy.find(block(5)).ips()[0].packets, 1u);
  EXPECT_EQ(original.find(block(5)).ips().size(), 10u);
  EXPECT_EQ(original.find(block(5)).ips()[0].packets, 101u);

  BlockStatsStore assigned;
  add_rx(assigned, block(1), 1, 1, 1, false, 0);
  assigned = original;
  EXPECT_FALSE(assigned.find(block(1)));
  EXPECT_EQ(assigned.find(block(5)).ips().size(), 10u);
}

TEST(BlockStatsStore, MoveLeavesSpillPointersValid) {
  BlockStatsStore source;
  for (int host = 0; host < 20; ++host) {
    add_rx(source, block(4), static_cast<std::uint8_t>(host), 1, 1, false, 0);
  }
  const BlockStatsStore moved = std::move(source);
  const BlockStatsStore::ConstRow row = moved.find(block(4));
  ASSERT_EQ(row.ips().size(), 20u);  // arena chunks moved, pointers intact
  EXPECT_EQ(row.ips()[19].host, 19);
}

// ---------------------------------------------------------------------------
// Differential + property tests against a map-backed reference model: the
// store must behave exactly like the obvious std::map implementation under
// random add_rx_rows runs, add_tx calls and merges.

struct RefBlock {
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_tcp_packets = 0;
  std::uint64_t rx_tcp_bytes = 0;
  std::uint64_t rx_est_packets = 0;
  std::uint64_t tx_packets = 0;
  std::array<std::uint64_t, 4> tx_host_bits{};
  std::map<std::uint8_t, IpRxStats> ips;  // sorted by host, like the store
};

struct RefStore {
  std::map<std::uint32_t, RefBlock> blocks;

  void add_rx(net::Block24 b, std::uint8_t host, std::uint64_t packets,
              std::uint64_t est_packets, bool tcp, std::uint64_t tcp_bytes) {
    RefBlock& row = blocks[b.index()];
    row.rx_packets += packets;
    row.rx_est_packets += est_packets;
    IpRxStats& ip = row.ips.try_emplace(host, IpRxStats{host, 0, 0, 0}).first->second;
    ip.packets += static_cast<std::uint32_t>(packets);
    if (tcp) {
      row.rx_tcp_packets += packets;
      row.rx_tcp_bytes += tcp_bytes;
      ip.tcp_packets += static_cast<std::uint32_t>(packets);
      ip.tcp_bytes += tcp_bytes;
    }
  }

  void add_tx(net::Block24 b, std::uint8_t host, std::uint64_t packets) {
    RefBlock& row = blocks[b.index()];
    row.tx_packets += packets;
    row.tx_host_bits[host >> 6] |= std::uint64_t{1} << (host & 63);
  }

  void merge(const RefStore& other) {
    for (const auto& [key, theirs] : other.blocks) {
      RefBlock& row = blocks[key];
      row.rx_packets += theirs.rx_packets;
      row.rx_tcp_packets += theirs.rx_tcp_packets;
      row.rx_tcp_bytes += theirs.rx_tcp_bytes;
      row.rx_est_packets += theirs.rx_est_packets;
      row.tx_packets += theirs.tx_packets;
      for (int w = 0; w < 4; ++w) row.tx_host_bits[w] |= theirs.tx_host_bits[w];
      for (const auto& [host, ip] : theirs.ips) {
        IpRxStats& mine = row.ips.try_emplace(host, IpRxStats{host, 0, 0, 0}).first->second;
        mine.packets += ip.packets;
        mine.tcp_packets += ip.tcp_packets;
        mine.tcp_bytes += ip.tcp_bytes;
      }
    }
  }
};

void expect_matches_reference(const BlockStatsStore& store, const RefStore& ref) {
  ASSERT_EQ(store.size(), ref.blocks.size());
  for (const auto& [key, want] : ref.blocks) {
    const BlockStatsStore::ConstRow row = store.find(net::Block24(key));
    ASSERT_TRUE(row) << key;
    EXPECT_EQ(row.rx_packets(), want.rx_packets) << key;
    EXPECT_EQ(row.rx_tcp_packets(), want.rx_tcp_packets) << key;
    EXPECT_EQ(row.rx_tcp_bytes(), want.rx_tcp_bytes) << key;
    EXPECT_EQ(row.rx_est_packets(), want.rx_est_packets) << key;
    EXPECT_EQ(row.tx_packets(), want.tx_packets) << key;
    EXPECT_EQ(row.tx_host_bits(), want.tx_host_bits) << key;
    const auto ips = row.ips();
    ASSERT_EQ(ips.size(), want.ips.size()) << key;
    std::size_t i = 0;
    for (const auto& [host, ip] : want.ips) {
      EXPECT_EQ(ips[i].host, host) << key;
      EXPECT_EQ(ips[i].packets, ip.packets) << key;
      EXPECT_EQ(ips[i].tcp_packets, ip.tcp_packets) << key;
      EXPECT_EQ(ips[i].tcp_bytes, ip.tcp_bytes) << key;
      ++i;
    }
  }
}

struct Op {
  bool rx = true;
  std::uint32_t key = 0;
  std::uint8_t host = 0;
  std::uint64_t packets = 0;
  bool tcp = false;
  std::uint64_t bytes = 0;
};

// Few blocks + few hosts so rows collide hard: deep per-IP runs, both
// inline and spilled, and plenty of shared rows between merge operands.
std::vector<Op> random_ops(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  std::vector<Op> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Op op;
    op.rx = rng.chance(0.8);
    op.key = static_cast<std::uint32_t>(rng.uniform(64));
    op.host = static_cast<std::uint8_t>(rng.uniform(16));
    op.packets = 1 + rng.uniform(4);
    op.tcp = rng.chance(0.6);
    op.bytes = op.packets * (rng.chance(0.8) ? 40 : 1400);
    out.push_back(op);
  }
  return out;
}

/// Apply `ops` to `store` the way batched ingest does and to `ref` one op
/// at a time.  The ops become FlowBatch-style columns and are cut into
/// runs of random length (1..300); each run's rx ops go in as one
/// add_rx_rows call whose row indices point into the whole column set, so
/// a run repeats keys and hosts, and its tx ops go through add_tx.
void apply(const std::vector<Op>& ops, std::uint64_t seed, BlockStatsStore& store,
           RefStore& ref) {
  std::vector<std::uint32_t> keys;
  std::vector<std::uint8_t> hosts;
  std::vector<std::uint64_t> packets;
  std::vector<std::uint64_t> est_packets;
  std::vector<std::uint8_t> tcp;
  std::vector<std::uint64_t> bytes;
  for (const Op& op : ops) {
    keys.push_back(op.key);
    hosts.push_back(op.host);
    packets.push_back(op.packets);
    est_packets.push_back(op.packets * 100);
    tcp.push_back(op.tcp ? 1 : 0);
    bytes.push_back(op.bytes);
  }

  util::Rng rng(seed);
  std::vector<std::uint32_t> rows;
  for (std::size_t first = 0; first < ops.size();) {
    const std::size_t end = std::min<std::size_t>(ops.size(), first + 1 + rng.uniform(300));
    rows.clear();
    for (std::size_t i = first; i < end; ++i) {
      if (ops[i].rx) {
        rows.push_back(static_cast<std::uint32_t>(i));
      } else {
        store.add_tx(block(ops[i].key), ops[i].host, ops[i].packets);
      }
    }
    store.add_rx_rows(rows, keys, hosts, packets, est_packets, tcp, bytes);
    first = end;
  }

  for (const Op& op : ops) {
    if (op.rx) {
      ref.add_rx(block(op.key), op.host, op.packets, op.packets * 100, op.tcp, op.bytes);
    } else {
      ref.add_tx(block(op.key), op.host, op.packets);
    }
  }
}

class StoreDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreDifferential, RandomOpsMatchMapReference) {
  BlockStatsStore store;
  RefStore ref;
  apply(random_ops(GetParam(), 5000), GetParam(), store, ref);
  expect_matches_reference(store, ref);
}

TEST_P(StoreDifferential, MergeMatchesMapReference) {
  BlockStatsStore sa, sb;
  RefStore ra, rb;
  apply(random_ops(GetParam(), 3000), GetParam(), sa, ra);
  apply(random_ops(GetParam() ^ 0xbeef, 3000), GetParam() + 1, sb, rb);
  sa.merge(sb);
  ra.merge(rb);
  expect_matches_reference(sa, ra);
}

TEST_P(StoreDifferential, MergeIsCommutative) {
  BlockStatsStore a1, b1, a2, b2;
  {
    RefStore r;
    apply(random_ops(GetParam(), 2000), GetParam(), a1, r);
    apply(random_ops(GetParam(), 2000), GetParam() + 1, a2, r);
    apply(random_ops(GetParam() ^ 0x5a5a, 2000), GetParam() + 2, b1, r);
    apply(random_ops(GetParam() ^ 0x5a5a, 2000), GetParam() + 3, b2, r);
  }

  a1.merge(b1);  // A + B
  b2.merge(a2);  // B + A

  // Same contents regardless of direction (row order may differ).
  ASSERT_EQ(a1.size(), b2.size());
  for (const BlockStatsStore::ConstRow x : a1) {
    const BlockStatsStore::ConstRow y = b2.find(x.block());
    ASSERT_TRUE(y);
    EXPECT_EQ(x.rx_packets(), y.rx_packets());
    EXPECT_EQ(x.rx_tcp_bytes(), y.rx_tcp_bytes());
    EXPECT_EQ(x.tx_packets(), y.tx_packets());
    EXPECT_EQ(x.tx_host_bits(), y.tx_host_bits());
    ASSERT_EQ(x.ips().size(), y.ips().size());
    for (std::size_t i = 0; i < x.ips().size(); ++i) {
      EXPECT_EQ(x.ips()[i].host, y.ips()[i].host);
      EXPECT_EQ(x.ips()[i].packets, y.ips()[i].packets);
    }
  }
}

TEST_P(StoreDifferential, MergeIsAssociativeAndMatchesSingleStore) {
  std::array<std::vector<Op>, 3> parts = {random_ops(GetParam(), 2000),
                                          random_ops(GetParam() ^ 0x77, 2000),
                                          random_ops(GetParam() ^ 0xfe, 2000)};
  std::array<BlockStatsStore, 3> shard;
  BlockStatsStore whole;
  RefStore ref;
  for (std::size_t i = 0; i < 3; ++i) {
    RefStore scratch;
    apply(parts[i], GetParam() + i, shard[i], scratch);
    apply(parts[i], GetParam() ^ i, whole, ref);
  }

  BlockStatsStore left = shard[0];  // (A + B) + C
  left.merge(shard[1]);
  left.merge(shard[2]);

  BlockStatsStore bc = shard[1];    // A + (B + C)
  bc.merge(shard[2]);
  BlockStatsStore right = shard[0];
  right.merge(bc);

  expect_matches_reference(left, ref);
  expect_matches_reference(right, ref);
  expect_matches_reference(whole, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreDifferential, ::testing::Values(3, 19, 71, 1337));

}  // namespace
}  // namespace mtscope::pipeline
