#include "pipeline/block_stats_store.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace mtscope::pipeline {

namespace {

constexpr std::uint32_t kNoRow = std::numeric_limits<std::uint32_t>::max();

inline std::uint64_t pack_slot(std::uint32_t key, std::uint32_t row) noexcept {
  return (static_cast<std::uint64_t>(key) << 32) | (row + 1);
}

}  // namespace

std::uint32_t BlockStatsStore::IpArena::class_of(std::uint32_t n) noexcept {
  std::uint32_t cls = 0;
  while (kRunClasses[cls] < n) ++cls;
  return cls;
}

IpRxStats* BlockStatsStore::IpArena::allocate(std::uint32_t cls) {
  ++spills;
  std::vector<IpRxStats*>& free = free_runs[cls];
  if (!free.empty()) {
    IpRxStats* run = free.back();
    free.pop_back();
    wasted -= kRunClasses[cls];
    return run;
  }
  const std::uint32_t n = kRunClasses[cls];
  allocated += n;
  if (last_chunk_used + n > last_chunk_size) {
    chunks.push_back(std::make_unique<IpRxStats[]>(kChunkIps));
    last_chunk_size = kChunkIps;
    last_chunk_used = 0;
  }
  IpRxStats* out = chunks.back().get() + last_chunk_used;
  last_chunk_used += n;
  return out;
}

void BlockStatsStore::IpArena::retire(IpRxStats* run, std::uint32_t cls) {
  free_runs[cls].push_back(run);
  wasted += kRunClasses[cls];
}

BlockStatsStore::BlockStatsStore(const BlockStatsStore& other)
    : slots_(other.slots_),
      keys_(other.keys_),
      rx_packets_(other.rx_packets_),
      rx_tcp_packets_(other.rx_tcp_packets_),
      rx_tcp_bytes_(other.rx_tcp_bytes_),
      rx_est_packets_(other.rx_est_packets_),
      tx_packets_(other.tx_packets_),
      tx_idx_(other.tx_idx_),
      ip_slots_(other.ip_slots_),
      tx_bits_(other.tx_bits_) {
  // The copied slots still point into `other`'s arena: re-home every spilled
  // run into a fresh arena, compacted to the tightest class that fits its
  // live count.
  for (IpSlot& slot : ip_slots_) {
    if (!slot.spilled()) continue;
    const std::uint32_t cls = IpArena::class_of(slot.count);
    IpRxStats* run = arena_.allocate(cls);
    std::copy(slot.spill, slot.spill + slot.count, run);
    slot.spill = run;
    slot.capacity = IpArena::kRunClasses[cls];
  }
}

BlockStatsStore& BlockStatsStore::operator=(const BlockStatsStore& other) {
  if (this != &other) {
    BlockStatsStore copy(other);
    *this = std::move(copy);
  }
  return *this;
}

std::uint32_t BlockStatsStore::find_row(net::Block24 block) const noexcept {
  if (slots_.empty()) return kNoRow;
  const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size()) - 1;
  std::uint32_t i = probe_start(block.index(), slots_.size());
  while (true) {
    const std::uint64_t entry = slots_[i];
    if (entry == 0) return kNoRow;
    if (static_cast<std::uint32_t>(entry >> 32) == block.index()) {
      return static_cast<std::uint32_t>(entry) - 1;
    }
    i = (i + 1) & mask;
  }
}

BlockStatsStore::ConstRow BlockStatsStore::find(net::Block24 block) const noexcept {
  const std::uint32_t row = find_row(block);
  return row == kNoRow ? ConstRow{} : ConstRow{this, row};
}

void BlockStatsStore::rehash(std::size_t new_capacity) {
  slots_.assign(new_capacity, 0);
  const std::uint32_t mask = static_cast<std::uint32_t>(new_capacity) - 1;
  for (std::uint32_t row = 0; row < keys_.size(); ++row) {
    std::uint32_t i = probe_start(keys_[row], new_capacity);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = pack_slot(keys_[row], row);
  }
  // The table admits at most 7/8 · capacity rows before the next rehash;
  // reserving exactly that keeps the columns free of doubling slack.
  const std::size_t max_rows = new_capacity / 8 * 7 + 1;
  keys_.reserve(max_rows);
  rx_packets_.reserve(max_rows);
  rx_tcp_packets_.reserve(max_rows);
  rx_tcp_bytes_.reserve(max_rows);
  rx_est_packets_.reserve(max_rows);
  tx_packets_.reserve(max_rows);
  tx_idx_.reserve(max_rows);
  ip_slots_.reserve(max_rows);
}

void BlockStatsStore::reserve_rows(std::size_t rows) {
  // Same growth predicate as find_or_insert: capacity is enough when
  // rows <= 7/8 of it.
  if (rows * 8 <= slots_.size() * 7) return;
  std::size_t capacity = std::max<std::size_t>(16, slots_.size() * 2);
  while (rows * 8 > capacity * 7) capacity *= 2;
  rehash(capacity);
}

std::uint32_t BlockStatsStore::find_or_insert(net::Block24 block) {
  // Grow before probing so the insert below always finds an empty slot and
  // the load factor stays under 7/8.
  if ((keys_.size() + 1) * 8 > slots_.size() * 7) {
    rehash(std::max<std::size_t>(16, slots_.size() * 2));
  }
  const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size()) - 1;
  std::uint32_t i = probe_start(block.index(), slots_.size());
  while (true) {
    const std::uint64_t entry = slots_[i];
    if (entry == 0) break;
    if (static_cast<std::uint32_t>(entry >> 32) == block.index()) {
      return static_cast<std::uint32_t>(entry) - 1;
    }
    i = (i + 1) & mask;
  }
  const std::uint32_t row = static_cast<std::uint32_t>(keys_.size());
  slots_[i] = pack_slot(block.index(), row);
  keys_.push_back(block.index());
  rx_packets_.push_back(0);
  rx_tcp_packets_.push_back(0);
  rx_tcp_bytes_.push_back(0);
  rx_est_packets_.push_back(0);
  tx_packets_.push_back(0);
  tx_idx_.push_back(kNoTxBits);
  ip_slots_.emplace_back();
  return row;
}

std::array<std::uint64_t, 4>& BlockStatsStore::tx_bits_for(std::uint32_t row) {
  std::uint32_t t = tx_idx_[row];
  if (t == kNoTxBits) {
    t = static_cast<std::uint32_t>(tx_bits_.size());
    tx_bits_.push_back({0, 0, 0, 0});
    tx_idx_[row] = t;
  }
  return tx_bits_[t];
}

IpRxStats& BlockStatsStore::upsert_ip(std::uint32_t row, std::uint8_t host) {
  IpSlot& slot = ip_slots_[row];
  IpRxStats* data = slot.data();
  std::uint32_t lo = 0;
  std::uint32_t hi = slot.count;
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (data[mid].host < host) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < slot.count && data[lo].host == host) return data[lo];

  if (slot.count == slot.capacity) {
    const std::uint32_t cls = IpArena::class_of(slot.count + 1u);
    IpRxStats* run = arena_.allocate(cls);
    std::copy(data, data + slot.count, run);
    if (slot.spilled()) arena_.retire(slot.spill, IpArena::class_of(slot.capacity));
    slot.spill = run;
    slot.capacity = IpArena::kRunClasses[cls];
    data = run;
  }
  for (std::uint32_t i = slot.count; i > lo; --i) data[i] = data[i - 1];
  data[lo] = IpRxStats{host, 0, 0, 0};
  ++slot.count;
  return data[lo];
}

void BlockStatsStore::assign_ips(std::uint32_t row, std::span<const IpRxStats> theirs) {
  IpSlot& slot = ip_slots_[row];
  if (theirs.size() > kInlineIps) {
    const std::uint32_t cls = IpArena::class_of(static_cast<std::uint32_t>(theirs.size()));
    slot.spill = arena_.allocate(cls);
    slot.capacity = IpArena::kRunClasses[cls];
  }
  std::copy(theirs.begin(), theirs.end(), slot.data());
  slot.count = static_cast<std::uint16_t>(theirs.size());
}

void BlockStatsStore::merge_ips(std::uint32_t row, std::span<const IpRxStats> theirs) {
  IpSlot& slot = ip_slots_[row];
  if (slot.count == 0) {
    assign_ips(row, theirs);
    return;
  }
  IpRxStats* mine = slot.data();

  // Size the union with a compare-only pass (both runs are sorted and
  // short), then merge without intermediate scratch.
  std::uint32_t n = 0;
  {
    std::uint32_t i = 0;
    std::size_t j = 0;
    while (i < slot.count && j < theirs.size()) {
      const std::uint8_t a = mine[i].host;
      const std::uint8_t b = theirs[j].host;
      i += a <= b;
      j += b <= a;
      ++n;
    }
    n += (slot.count - i) + static_cast<std::uint32_t>(theirs.size() - j);
  }

  if (n > slot.capacity) {
    // Forward-merge both runs straight into a bigger arena run, then
    // retire the old one for recycling.
    const std::uint32_t cls = IpArena::class_of(n);
    IpRxStats* out = arena_.allocate(cls);
    std::uint32_t i = 0;
    std::size_t j = 0;
    std::uint32_t k = 0;
    while (i < slot.count && j < theirs.size()) {
      if (mine[i].host < theirs[j].host) {
        out[k++] = mine[i++];
      } else if (mine[i].host > theirs[j].host) {
        out[k++] = theirs[j++];
      } else {
        IpRxStats combined = mine[i++];
        const IpRxStats& t = theirs[j++];
        combined.packets += t.packets;
        combined.tcp_packets += t.tcp_packets;
        combined.tcp_bytes += t.tcp_bytes;
        out[k++] = combined;
      }
    }
    while (i < slot.count) out[k++] = mine[i++];
    while (j < theirs.size()) out[k++] = theirs[j++];
    if (slot.spilled()) arena_.retire(slot.spill, IpArena::class_of(slot.capacity));
    slot.spill = out;
    slot.capacity = IpArena::kRunClasses[cls];
  } else {
    // Union fits where the run already lives: merge backward in place.
    // The write cursor k never catches the read cursor i (k - i equals
    // the number of their entries still to place), so nothing unread is
    // overwritten.
    std::int32_t i = static_cast<std::int32_t>(slot.count) - 1;
    std::ptrdiff_t j = static_cast<std::ptrdiff_t>(theirs.size()) - 1;
    std::int32_t k = static_cast<std::int32_t>(n) - 1;
    while (j >= 0) {
      if (i >= 0 && mine[i].host > theirs[j].host) {
        mine[k--] = mine[i--];
      } else if (i >= 0 && mine[i].host == theirs[j].host) {
        IpRxStats combined = mine[i--];
        const IpRxStats& t = theirs[j--];
        combined.packets += t.packets;
        combined.tcp_packets += t.tcp_packets;
        combined.tcp_bytes += t.tcp_bytes;
        mine[k--] = combined;
      } else {
        mine[k--] = theirs[j--];
      }
    }
  }
  slot.count = static_cast<std::uint16_t>(n);
}

void BlockStatsStore::add_rx_rows(std::span<const std::uint32_t> rows,
                                  std::span<const std::uint32_t> keys,
                                  std::span<const std::uint8_t> hosts,
                                  std::span<const std::uint64_t> packets,
                                  std::span<const std::uint64_t> est_packets,
                                  std::span<const std::uint8_t> tcp,
                                  std::span<const std::uint64_t> tcp_bytes) {
  constexpr std::size_t kProbeAhead = 16;
  constexpr std::size_t kUpdateAhead = 8;

  // Pass 1: resolve every key to its dense row (creating first-seen rows
  // in first-occurrence order), slot lines pulled ahead.
  row_scratch_.resize(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (k + kProbeAhead < rows.size()) {
      prefetch_block(net::Block24(keys[rows[k + kProbeAhead]]));
    }
    row_scratch_[k] = find_or_insert(net::Block24(keys[rows[k]]));
  }

  // Pass 2: commutative column sums against known rows; the hot counter
  // and per-IP-run lines of upcoming rows load while this one retires.
  for (std::size_t k = 0; k < rows.size(); ++k) {
#if defined(__GNUC__) || defined(__clang__)
    if (k + kUpdateAhead < rows.size()) {
      const std::uint32_t ahead = row_scratch_[k + kUpdateAhead];
      __builtin_prefetch(&rx_packets_[ahead], 1);
      __builtin_prefetch(&rx_est_packets_[ahead], 1);
      __builtin_prefetch(&ip_slots_[ahead], 1);
    }
#endif
    const std::uint32_t row = row_scratch_[k];
    const std::uint32_t i = rows[k];
    rx_packets_[row] += packets[i];
    rx_est_packets_[row] += est_packets[i];
    IpRxStats& ip = upsert_ip(row, hosts[i]);
    ip.packets += static_cast<std::uint32_t>(packets[i]);
    if (tcp[i] != 0) {
      rx_tcp_packets_[row] += packets[i];
      rx_tcp_bytes_[row] += tcp_bytes[i];
      ip.tcp_packets += static_cast<std::uint32_t>(packets[i]);
      ip.tcp_bytes += tcp_bytes[i];
    }
  }
}

void BlockStatsStore::add_tx(net::Block24 block, std::uint8_t host, std::uint64_t packets) {
  const std::uint32_t row = find_or_insert(block);
  tx_packets_[row] += packets;
  tx_bits_for(row)[host >> 6] |= std::uint64_t{1} << (host & 63);
}

void BlockStatsStore::merge(const BlockStatsStore& other) {
  // Their key column is a sequential read, so the fold knows every probe
  // in advance — same look-ahead trick as the batched ingest loop.
  constexpr std::uint32_t kPrefetchAhead = 16;
  for (std::uint32_t theirs = 0; theirs < other.keys_.size(); ++theirs) {
    if (theirs + kPrefetchAhead < other.keys_.size()) {
      prefetch_block(net::Block24(other.keys_[theirs + kPrefetchAhead]));
    }
    const std::size_t rows_before = keys_.size();
    const std::uint32_t row = find_or_insert(net::Block24(other.keys_[theirs]));
    const IpSlot& their_slot = other.ip_slots_[theirs];
    if (keys_.size() != rows_before) {
      // Row is new to this store: bulk-copy instead of merging into zeros.
      rx_packets_[row] = other.rx_packets_[theirs];
      rx_tcp_packets_[row] = other.rx_tcp_packets_[theirs];
      rx_tcp_bytes_[row] = other.rx_tcp_bytes_[theirs];
      rx_est_packets_[row] = other.rx_est_packets_[theirs];
      tx_packets_[row] = other.tx_packets_[theirs];
      if (other.tx_idx_[theirs] != kNoTxBits) {
        tx_bits_for(row) = other.tx_bits_[other.tx_idx_[theirs]];
      }
      if (their_slot.count > 0) {
        assign_ips(row, {their_slot.data(), their_slot.count});
      }
      continue;
    }
    rx_packets_[row] += other.rx_packets_[theirs];
    rx_tcp_packets_[row] += other.rx_tcp_packets_[theirs];
    rx_tcp_bytes_[row] += other.rx_tcp_bytes_[theirs];
    rx_est_packets_[row] += other.rx_est_packets_[theirs];
    tx_packets_[row] += other.tx_packets_[theirs];
    if (other.tx_idx_[theirs] != kNoTxBits) {
      const std::array<std::uint64_t, 4>& their_bits = other.tx_bits_[other.tx_idx_[theirs]];
      std::array<std::uint64_t, 4>& bits = tx_bits_for(row);
      for (int w = 0; w < 4; ++w) bits[w] |= their_bits[w];
    }
    if (their_slot.count > 0) {
      merge_ips(row, {their_slot.data(), their_slot.count});
    }
  }
}

std::size_t BlockStatsStore::memory_bytes() const noexcept {
  std::size_t arena_bytes = arena_.chunks.size() * IpArena::kChunkIps * sizeof(IpRxStats);
  for (const std::vector<IpRxStats*>& free : arena_.free_runs) {
    arena_bytes += free.capacity() * sizeof(IpRxStats*);
  }
  return slots_.capacity() * sizeof(std::uint64_t) +
         keys_.capacity() * sizeof(std::uint32_t) +
         rx_packets_.capacity() * sizeof(std::uint64_t) +
         rx_tcp_packets_.capacity() * sizeof(std::uint64_t) +
         rx_tcp_bytes_.capacity() * sizeof(std::uint64_t) +
         rx_est_packets_.capacity() * sizeof(std::uint64_t) +
         tx_packets_.capacity() * sizeof(std::uint64_t) +
         tx_idx_.capacity() * sizeof(std::uint32_t) +
         tx_bits_.capacity() * sizeof(std::array<std::uint64_t, 4>) +
         ip_slots_.capacity() * sizeof(IpSlot) +
         row_scratch_.capacity() * sizeof(std::uint32_t) + arena_bytes;
}

}  // namespace mtscope::pipeline
