// BlockStatsStore: the columnar per-/24 measurement store under
// VantageStats.
//
// The paper's funnel (§4.2, Figure 2) covers millions of /24s — ~6M seen,
// 3.8M gray — and collect/infer over that population is won or lost on
// memory layout, not instruction count.  The node-based unordered_map of
// per-block structs it replaced paid a pointer chase per block plus a heap-allocated vector per block for a handful of
// per-IP records; this store keeps everything in flat arrays:
//
//   * an open-addressing index (linear probing, Fibonacci hashing of the
//     24-bit block id, power-of-two capacity, ≤ 7/8 load) whose entries
//     pack the key next to the row id, so a probe never leaves the slot
//     array;
//   * struct-of-arrays columns for the hot funnel fields (rx_packets,
//     rx_tcp_packets, rx_tcp_bytes, rx_est_packets, tx_packets), so a
//     pass that reads one field streams one array — a source-only block
//     costs a single rx_packets load.  Column capacity is reserved in
//     lockstep with the index (rows ≤ 7/8 · slots), so the columns never
//     carry push_back doubling slack;
//   * tx host bitmaps in a side table indexed by a per-row offset —
//     almost every observed block is destination-only, so the dense
//     column the map path carried would be ~90% zeros;
//   * per-IP stats sorted by host, held in a small inline buffer per row
//     (most blocks see only a couple of sampled addresses) with spill
//     into a chunked arena of size-classed runs — no per-block heap
//     allocation, grown-out runs are recycled through per-class free
//     lists, and the sorted order makes block merge a linear two-run
//     walk instead of the quadratic probe-per-entry the old rx_ip()
//     loop did.
//
// Everything the store accumulates is a sum, a bitwise OR, or a sorted
// multiset union keyed by host — commutative and associative — so results
// are bit-identical no matter how ingestion is partitioned (the
// thread×shard×batch grids in tests/test_parallel_pipeline check it
// against a per-record std::map referee, and tests/test_block_stats_store
// pins the store against a map-backed reference differentially).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/ipv4.hpp"

namespace mtscope::pipeline {

/// Destination-side counters for one host address within a block.
struct IpRxStats {
  std::uint8_t host = 0;         // last octet
  std::uint32_t packets = 0;     // sampled
  std::uint32_t tcp_packets = 0;
  std::uint64_t tcp_bytes = 0;

  [[nodiscard]] double avg_tcp_size() const noexcept {
    return tcp_packets == 0 ? 0.0
                            : static_cast<double>(tcp_bytes) / static_cast<double>(tcp_packets);
  }
};

class BlockStatsStore {
 public:
  /// Per-IP records kept inline in the row before spilling to the arena.
  /// Two covers the bulk of blocks at IXP sampling rates; a /24 can never
  /// need more than 256 entries (one per host), which bounds merge scratch.
  static constexpr std::uint32_t kInlineIps = 2;
  static constexpr std::uint32_t kMaxIps = 256;

  BlockStatsStore() = default;
  BlockStatsStore(const BlockStatsStore& other);
  BlockStatsStore& operator=(const BlockStatsStore& other);
  BlockStatsStore(BlockStatsStore&&) noexcept = default;
  BlockStatsStore& operator=(BlockStatsStore&&) noexcept = default;
  ~BlockStatsStore() = default;

  /// Read-only view of one row.  Accessors index straight into the
  /// columns, so a caller that never asks for a field never touches its
  /// array.  Invalid (default-constructed / not-found) views are falsy.
  class ConstRow {
   public:
    ConstRow() = default;

    explicit operator bool() const noexcept { return store_ != nullptr; }

    [[nodiscard]] net::Block24 block() const noexcept {
      return net::Block24(store_->keys_[row_]);
    }
    [[nodiscard]] std::uint64_t rx_packets() const noexcept {
      return store_->rx_packets_[row_];
    }
    [[nodiscard]] std::uint64_t rx_tcp_packets() const noexcept {
      return store_->rx_tcp_packets_[row_];
    }
    [[nodiscard]] std::uint64_t rx_tcp_bytes() const noexcept {
      return store_->rx_tcp_bytes_[row_];
    }
    [[nodiscard]] std::uint64_t rx_est_packets() const noexcept {
      return store_->rx_est_packets_[row_];
    }
    [[nodiscard]] std::uint64_t tx_packets() const noexcept {
      return store_->tx_packets_[row_];
    }
    [[nodiscard]] bool host_sent(std::uint8_t host) const noexcept {
      const std::uint32_t t = store_->tx_idx_[row_];
      return t != kNoTxBits &&
             ((store_->tx_bits_[t][host >> 6] >> (host & 63)) & 1) != 0;
    }
    [[nodiscard]] const std::array<std::uint64_t, 4>& tx_host_bits() const noexcept {
      const std::uint32_t t = store_->tx_idx_[row_];
      return t == kNoTxBits ? kZeroTxBits : store_->tx_bits_[t];
    }
    /// Per-IP records, sorted by host.
    [[nodiscard]] std::span<const IpRxStats> ips() const noexcept {
      const IpSlot& slot = store_->ip_slots_[row_];
      return {slot.data(), slot.count};
    }
    [[nodiscard]] double avg_tcp_size() const noexcept {
      const std::uint64_t pkts = rx_tcp_packets();
      return pkts == 0 ? 0.0
                       : static_cast<double>(rx_tcp_bytes()) / static_cast<double>(pkts);
    }

   private:
    friend class BlockStatsStore;
    ConstRow(const BlockStatsStore* store, std::uint32_t row) noexcept
        : store_(store), row_(row) {}

    const BlockStatsStore* store_ = nullptr;
    std::uint32_t row_ = 0;
  };

  /// Forward iteration over rows in insertion (dense) order.
  class const_iterator {
   public:
    using value_type = ConstRow;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    ConstRow operator*() const noexcept { return ConstRow(store_, row_); }
    const_iterator& operator++() noexcept {
      ++row_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator copy = *this;
      ++row_;
      return copy;
    }
    friend bool operator==(const const_iterator&, const const_iterator&) noexcept = default;

   private:
    friend class BlockStatsStore;
    const_iterator(const BlockStatsStore* store, std::uint32_t row) noexcept
        : store_(store), row_(row) {}

    const BlockStatsStore* store_ = nullptr;
    std::uint32_t row_ = 0;
  };

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept {
    return {this, static_cast<std::uint32_t>(keys_.size())};
  }

  /// Row by dense index in [0, size()) — what the parallel funnel range-
  /// partitions over, with no pointer snapshot of the table required.
  [[nodiscard]] ConstRow row(std::size_t index) const noexcept {
    return {this, static_cast<std::uint32_t>(index)};
  }

  /// Falsy view when the block has never been observed.
  [[nodiscard]] ConstRow find(net::Block24 block) const noexcept;

  /// Pre-size the index (and, in lockstep, the columns) for at least
  /// `rows` rows, so inserts up to that count never rehash.  The sharded
  /// collector calls this with batch statistics before each insert run and
  /// with the exact disjoint row total before the shard fold — growing a
  /// six-figure store through the doubling schedule rebuilds the index
  /// log2(rows) times; one reserve rebuilds it once.  No-op when the store
  /// already has the capacity.
  void reserve_rows(std::size_t rows);

  /// Hint that `block` is about to be probed (add_rx_rows/add_tx/find/
  /// merge): pulls the slot cache line the probe will start at.  The batched
  /// ingest path knows its keys a whole FlowBatch ahead, so it issues
  /// these ~16 rows early and the index misses overlap instead of
  /// serializing — the memory-level parallelism a record-at-a-time
  /// caller structurally cannot express.  Pure hint: no effect on
  /// results, safe at any load factor.
  void prefetch_block(net::Block24 block) const noexcept {
    if (slots_.empty()) return;
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(slots_.data() + probe_start(block.index(), slots_.size()));
#endif
  }

  /// Destination-side accounting over a routed run: for each k, the
  /// traffic of batch row rows[k] toward host hosts[rows[k]] inside block
  /// keys[rows[k]] (`rows` indexes into the parallel column spans, a
  /// FlowBatch's SoA layout).  Runs in two passes — probe every key into
  /// a row scratch first, then apply the column updates — so the index
  /// misses of upcoming probes and the column/ip-run misses of upcoming
  /// updates are both in flight while the current row retires.  Pass one
  /// creates rows in first-occurrence order, pass two adds commutative
  /// sums, so the result equals one row-at-a-time update per entry.
  void add_rx_rows(std::span<const std::uint32_t> rows,
                   std::span<const std::uint32_t> keys,
                   std::span<const std::uint8_t> hosts,
                   std::span<const std::uint64_t> packets,
                   std::span<const std::uint64_t> est_packets,
                   std::span<const std::uint8_t> tcp,
                   std::span<const std::uint64_t> tcp_bytes);

  /// Source-side accounting: `host` inside `block` sent `packets`.
  void add_tx(net::Block24 block, std::uint8_t host, std::uint64_t packets);

  /// Fold another store in.  Rows new to this store append column-wise
  /// (one bulk copy per row); shared rows add counters, OR host bitmaps,
  /// and union the sorted per-IP runs in one linear walk — in place when
  /// the run has room, straight into a fresh arena run when it does not.
  /// Commutative and associative.
  void merge(const BlockStatsStore& other);

  // --- capacity / layout diagnostics (the collect.store.* gauges) -------

  /// Heap bytes owned by the store: index + columns + arena chunks.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Occupancy of the open-addressing index in [0, 1].
  [[nodiscard]] double load_factor() const noexcept {
    return slots_.empty() ? 0.0
                          : static_cast<double>(keys_.size()) /
                                static_cast<double>(slots_.size());
  }

  /// Arena run allocations handed to rows that outgrew the inline buffer
  /// (first spills and regrows both count; free-list reuses count too).
  [[nodiscard]] std::uint64_t arena_spills() const noexcept { return arena_.spills; }

  /// IpRxStats slots carved out of arena chunks, and the subset currently
  /// parked on the per-class free lists (a regrow retires the old run;
  /// the next same-class spill recycles it).
  [[nodiscard]] std::uint64_t arena_allocated_ips() const noexcept {
    return arena_.allocated;
  }
  [[nodiscard]] std::uint64_t arena_wasted_ips() const noexcept { return arena_.wasted; }

 private:
  /// Per-row handle to the sorted per-IP run.  The run lives in the
  /// inline buffer until it overflows, then in a size-classed arena run;
  /// the two share storage since exactly one is active (capacity says
  /// which).
  struct IpSlot {
    union {
      std::array<IpRxStats, kInlineIps> inline_ips;
      IpRxStats* spill;
    };
    std::uint16_t count = 0;
    std::uint16_t capacity = kInlineIps;

    IpSlot() noexcept : inline_ips{} {}

    [[nodiscard]] bool spilled() const noexcept { return capacity > kInlineIps; }
    [[nodiscard]] IpRxStats* data() noexcept {
      return spilled() ? spill : inline_ips.data();
    }
    [[nodiscard]] const IpRxStats* data() const noexcept {
      return spilled() ? spill : inline_ips.data();
    }
  };

  /// Chunked arena for spilled per-IP runs.  Runs come in fixed size
  /// classes; a grown-out run goes onto its class's free list and the
  /// next spill of that class recycles it.  Chunks never move, so
  /// handed-out pointers stay valid for the life of the store.
  struct IpArena {
    static constexpr std::size_t kChunkIps = 4096;
    /// Run capacities: ~1.4x steps so a run never over-provisions by
    /// more than ~40%, bounded by one entry per possible host.
    static constexpr std::array<std::uint16_t, 13> kRunClasses{
        4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256};

    std::vector<std::unique_ptr<IpRxStats[]>> chunks;
    std::array<std::vector<IpRxStats*>, kRunClasses.size()> free_runs{};
    std::size_t last_chunk_size = 0;
    std::size_t last_chunk_used = 0;
    std::uint64_t spills = 0;
    std::uint64_t allocated = 0;
    std::uint64_t wasted = 0;

    /// Index of the smallest class with capacity >= n (n <= kMaxIps).
    [[nodiscard]] static std::uint32_t class_of(std::uint32_t n) noexcept;

    /// A run of kRunClasses[cls] entries — recycled if one is free,
    /// freshly carved from the current chunk otherwise.
    IpRxStats* allocate(std::uint32_t cls);

    /// Park a grown-out run for reuse by the next same-class allocate.
    void retire(IpRxStats* run, std::uint32_t cls);
  };

  /// Fibonacci hashing: the golden-ratio multiply smears the 24-bit block
  /// id over the full word and the top bits index the table, which keeps
  /// linear probe runs short even for the sequential block ids dense /8s
  /// produce.
  [[nodiscard]] static std::uint32_t probe_start(std::uint32_t key,
                                                 std::size_t capacity) noexcept {
    const std::uint32_t h = key * 0x9E3779B9u;
    return h >> (std::countl_zero(static_cast<std::uint32_t>(capacity)) + 1);
  }

  [[nodiscard]] std::uint32_t find_row(net::Block24 block) const noexcept;
  std::uint32_t find_or_insert(net::Block24 block);
  void rehash(std::size_t new_capacity);

  /// The row's tx bitmap in the side table, created on first use.
  std::array<std::uint64_t, 4>& tx_bits_for(std::uint32_t row);

  /// Find-or-insert `host` in the row's sorted run, growing inline->arena
  /// as needed.  Returns a reference valid until the next mutation.
  IpRxStats& upsert_ip(std::uint32_t row, std::uint8_t host);

  /// Union `theirs` (sorted, non-empty) into the row's sorted run, adding
  /// counters on equal hosts.  Linear in the combined length.
  void merge_ips(std::uint32_t row, std::span<const IpRxStats> theirs);

  /// Replace the row's (empty) run with a copy of `theirs`.
  void assign_ips(std::uint32_t row, std::span<const IpRxStats> theirs);

  static constexpr std::uint32_t kNoTxBits = 0xffffffffu;
  static constexpr std::array<std::uint64_t, 4> kZeroTxBits{};

  // Open-addressing index: power-of-two sized, entries pack the 24-bit
  // block id in the high word and row index + 1 in the low word (0 marks
  // an empty slot), so probing stays inside this one array.
  std::vector<std::uint64_t> slots_;

  // SoA columns, one entry per row, indexed by the dense row id.
  std::vector<std::uint32_t> keys_;  // Block24::index()
  std::vector<std::uint64_t> rx_packets_;
  std::vector<std::uint64_t> rx_tcp_packets_;
  std::vector<std::uint64_t> rx_tcp_bytes_;
  std::vector<std::uint64_t> rx_est_packets_;
  std::vector<std::uint64_t> tx_packets_;
  std::vector<std::uint32_t> tx_idx_;  // offset into tx_bits_, kNoTxBits if none
  std::vector<IpSlot> ip_slots_;

  // Host bitmaps for the (few) rows that ever transmitted.
  std::vector<std::array<std::uint64_t, 4>> tx_bits_;

  IpArena arena_;

  // Probe-phase output of add_rx_rows, kept across batches so ingest
  // never allocates per batch.  Pure scratch: not copied, not part
  // of the store's logical state.
  std::vector<std::uint32_t> row_scratch_;
};

}  // namespace mtscope::pipeline
