#include "serve/snapshot.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <map>

#include "routing/rib.hpp"
#include "util/bytes.hpp"

namespace mtscope::serve {

namespace {

using util::crc32;
using util::le_patch_u32;
using util::le_put_u16;
using util::le_put_u32;
using util::le_put_u64;

// "\r\n" in the magic catches text-mode / newline-translating transports
// the way the PNG signature does.
constexpr std::array<std::uint8_t, 8> kMagic = {'M', 'T', 'S', 'N', 'A', 'P', '\r', '\n'};
constexpr std::size_t kHeaderSize = 24;
constexpr std::size_t kTableEntrySize = 24;

// Section kinds, in the order the writer emits them (readers require it:
// a fixed order is what makes re-serialization byte-identical).
enum SectionKind : std::uint32_t {
  kSectionMeta = 1,
  kSectionFunnel = 2,
  kSectionPrefixes = 3,
  kSectionBlocks = 4,
  kSectionAnalytics = 5,  // version >= 2 only
};
constexpr std::array<std::uint32_t, 5> kSectionOrder = {
    kSectionMeta, kSectionFunnel, kSectionPrefixes, kSectionBlocks, kSectionAnalytics};

constexpr std::size_t kMetaFixedSize = 48;     // 4 x u64 + 3 x u32 + source_len u32
constexpr std::size_t kFunnelSize = 80;        // 10 x u64
constexpr std::size_t kPrefixEntrySize = 12;   // base u32 + asn u32 + len u8 + pad[3]
constexpr std::size_t kBlockEntrySize = 8;     // packed u32 + prefix_id u32

constexpr std::size_t kAnalyticsFixedSize = 32;  // 8 x u32 header
constexpr std::size_t kLabelSize = 4;            // country[2] + continent u8 + net_type u8
constexpr std::size_t kCellSize = 16;            // block u32 + port u16 + pad u16 + packets u64
constexpr std::size_t kSeriesPointSize = 16;     // prefix_id u32 + day u32 + packets u64
constexpr std::size_t kOutageSize = 32;          // 4 x u32 + 2 x u64
constexpr std::size_t kServiceSize = 16;         // u8 x2 + u16 + rank u32 + packets u64
constexpr std::size_t kScannerSize = 24;         // 3 x u32 + pad u32 + packets u64

// Ordinal ceilings for label validation: geo::Continent has seven values
// (kNorthAmerica..kInternational) and geo::NetType four.
constexpr std::uint8_t kMaxContinent = 6;
constexpr std::uint8_t kMaxNetType = 3;

util::Error err(std::string code, std::string message) {
  return util::make_error(std::move(code), std::move(message));
}

std::vector<std::uint8_t> serialize_meta(const RunMetadata& m) {
  std::vector<std::uint8_t> out;
  out.reserve(kMetaFixedSize + m.source.size());
  le_put_u64(out, m.seed);
  le_put_u64(out, m.spoof_tolerance_pkts);
  le_put_u64(out, m.flows_ingested);
  le_put_u64(out, m.created_unix_s);
  le_put_u32(out, m.threads);
  le_put_u32(out, m.shards);
  le_put_u32(out, m.days);
  le_put_u32(out, static_cast<std::uint32_t>(m.source.size()));
  out.insert(out.end(), m.source.begin(), m.source.end());
  return out;
}

std::vector<std::uint8_t> serialize_funnel(const TelescopeSnapshot& s) {
  std::vector<std::uint8_t> out;
  out.reserve(kFunnelSize);
  le_put_u64(out, s.funnel.seen);
  le_put_u64(out, s.funnel.after_tcp);
  le_put_u64(out, s.funnel.after_size);
  le_put_u64(out, s.funnel.after_source);
  le_put_u64(out, s.funnel.after_reserved);
  le_put_u64(out, s.funnel.after_routed);
  le_put_u64(out, s.funnel.after_volume);
  le_put_u64(out, s.dark_count);
  le_put_u64(out, s.unclean_count);
  le_put_u64(out, s.gray_count);
  return out;
}

std::vector<std::uint8_t> serialize_prefixes(const TelescopeSnapshot& s) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + s.prefixes.size() * kPrefixEntrySize);
  le_put_u32(out, static_cast<std::uint32_t>(s.prefixes.size()));
  for (const PrefixEntry& p : s.prefixes) {
    le_put_u32(out, p.base);
    le_put_u32(out, p.origin_asn);
    out.push_back(p.length);
    out.push_back(0);
    out.push_back(0);
    out.push_back(0);
  }
  return out;
}

std::vector<std::uint8_t> serialize_blocks(const TelescopeSnapshot& s) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + s.blocks.size() * kBlockEntrySize);
  le_put_u32(out, static_cast<std::uint32_t>(s.blocks.size()));
  for (const BlockEntry& b : s.blocks) {
    le_put_u32(out, b.packed);
    le_put_u32(out, b.prefix_id);
  }
  return out;
}

std::vector<std::uint8_t> serialize_analytics(const AnalyticsData& a) {
  std::vector<std::uint8_t> out;
  out.reserve(kAnalyticsFixedSize + a.labels.size() * kLabelSize + a.cells.size() * kCellSize +
              a.series.size() * kSeriesPointSize + a.outages.size() * kOutageSize +
              a.services.size() * kServiceSize + a.scanners.size() * kScannerSize);
  le_put_u32(out, a.first_day);
  le_put_u32(out, a.window_days);
  le_put_u32(out, static_cast<std::uint32_t>(a.labels.size()));
  le_put_u32(out, static_cast<std::uint32_t>(a.cells.size()));
  le_put_u32(out, static_cast<std::uint32_t>(a.series.size()));
  le_put_u32(out, static_cast<std::uint32_t>(a.outages.size()));
  le_put_u32(out, static_cast<std::uint32_t>(a.services.size()));
  le_put_u32(out, static_cast<std::uint32_t>(a.scanners.size()));
  for (const BlockLabel& l : a.labels) {
    out.push_back(static_cast<std::uint8_t>(l.country[0]));
    out.push_back(static_cast<std::uint8_t>(l.country[1]));
    out.push_back(l.continent);
    out.push_back(l.net_type);
  }
  for (const PortCell& c : a.cells) {
    le_put_u32(out, c.block);
    le_put_u16(out, c.port);
    le_put_u16(out, 0);
    le_put_u64(out, c.packets);
  }
  for (const SeriesPoint& p : a.series) {
    le_put_u32(out, p.prefix_id);
    le_put_u32(out, p.day);
    le_put_u64(out, p.packets);
  }
  for (const analytics::OutageEvent& o : a.outages) {
    le_put_u32(out, o.prefix_id);
    le_put_u32(out, o.start_day);
    le_put_u32(out, o.end_day);
    le_put_u32(out, o.severity_pct);
    le_put_u64(out, o.baseline);
    le_put_u64(out, o.observed);
  }
  for (const analytics::ServicePortStat& s : a.services) {
    out.push_back(s.continent);
    out.push_back(s.net_type);
    le_put_u16(out, s.port);
    le_put_u32(out, s.rank);
    le_put_u64(out, s.packets);
  }
  for (const analytics::ScannerProfile& s : a.scanners) {
    le_put_u32(out, s.src_block);
    le_put_u32(out, s.blocks_touched);
    le_put_u32(out, s.ports_touched);
    le_put_u32(out, 0);
    le_put_u64(out, s.est_packets);
  }
  return out;
}

util::Result<AnalyticsData> parse_analytics(std::span<const std::uint8_t> body,
                                            std::size_t block_count,
                                            std::size_t prefix_count) {
  util::ByteReader r(body);
  AnalyticsData a;
  a.first_day = r.le_u32();
  a.window_days = r.le_u32();
  const std::uint32_t label_count = r.le_u32();
  const std::uint32_t cell_count = r.le_u32();
  const std::uint32_t series_count = r.le_u32();
  const std::uint32_t outage_count = r.le_u32();
  const std::uint32_t service_count = r.le_u32();
  const std::uint32_t scanner_count = r.le_u32();
  if (!r.ok()) {
    return err("snapshot.bad_section", "ANALYTICS section shorter than its header");
  }
  const std::uint64_t expected =
      std::uint64_t{label_count} * kLabelSize + std::uint64_t{cell_count} * kCellSize +
      std::uint64_t{series_count} * kSeriesPointSize + std::uint64_t{outage_count} * kOutageSize +
      std::uint64_t{service_count} * kServiceSize + std::uint64_t{scanner_count} * kScannerSize;
  if (r.remaining() != expected) {
    return err("snapshot.bad_section", "ANALYTICS record counts disagree with section length");
  }
  if (label_count != block_count) {
    return err("snapshot.bad_section", "ANALYTICS label count disagrees with the block table");
  }

  a.labels.reserve(label_count);
  for (std::uint32_t i = 0; i < label_count; ++i) {
    util::ByteReader e = r.take(kLabelSize);
    BlockLabel l;
    l.country[0] = static_cast<char>(e.u8());
    l.country[1] = static_cast<char>(e.u8());
    l.continent = e.u8();
    l.net_type = e.u8();
    if (l.continent > kMaxContinent || l.net_type > kMaxNetType) {
      return err("snapshot.bad_section", "ANALYTICS label has an out-of-range ordinal");
    }
    a.labels.push_back(l);
  }

  a.cells.reserve(cell_count);
  for (std::uint32_t i = 0; i < cell_count; ++i) {
    util::ByteReader e = r.take(kCellSize);
    PortCell c;
    c.block = e.le_u32();
    c.port = e.le_u16();
    if (e.le_u16() != 0) {
      return err("snapshot.bad_section", "ANALYTICS cell has non-zero padding");
    }
    c.packets = e.le_u64();
    if (!a.cells.empty() && std::pair(a.cells.back().block, a.cells.back().port) >=
                                std::pair(c.block, c.port)) {
      return err("snapshot.bad_section", "ANALYTICS cells are not strictly ascending");
    }
    a.cells.push_back(c);
  }

  a.series.reserve(series_count);
  for (std::uint32_t i = 0; i < series_count; ++i) {
    util::ByteReader e = r.take(kSeriesPointSize);
    SeriesPoint p;
    p.prefix_id = e.le_u32();
    p.day = e.le_u32();
    p.packets = e.le_u64();
    if (p.prefix_id >= prefix_count) {
      return err("snapshot.bad_section", "ANALYTICS series references a missing prefix");
    }
    if (p.day < a.first_day || p.day - a.first_day >= a.window_days) {
      return err("snapshot.bad_section", "ANALYTICS series day falls outside the window");
    }
    if (p.packets == 0) {
      return err("snapshot.bad_section", "ANALYTICS series stores an explicit zero");
    }
    if (!a.series.empty() && std::pair(a.series.back().prefix_id, a.series.back().day) >=
                                 std::pair(p.prefix_id, p.day)) {
      return err("snapshot.bad_section", "ANALYTICS series points are not strictly ascending");
    }
    a.series.push_back(p);
  }

  a.outages.reserve(outage_count);
  for (std::uint32_t i = 0; i < outage_count; ++i) {
    util::ByteReader e = r.take(kOutageSize);
    analytics::OutageEvent o;
    o.prefix_id = e.le_u32();
    o.start_day = e.le_u32();
    o.end_day = e.le_u32();
    o.severity_pct = e.le_u32();
    o.baseline = e.le_u64();
    o.observed = e.le_u64();
    if (o.prefix_id >= prefix_count) {
      return err("snapshot.bad_section", "ANALYTICS outage references a missing prefix");
    }
    if (o.start_day > o.end_day || o.severity_pct > 100) {
      return err("snapshot.bad_section", "ANALYTICS outage event is malformed");
    }
    a.outages.push_back(o);
  }

  a.services.reserve(service_count);
  for (std::uint32_t i = 0; i < service_count; ++i) {
    util::ByteReader e = r.take(kServiceSize);
    analytics::ServicePortStat s;
    s.continent = e.u8();
    s.net_type = e.u8();
    s.port = e.le_u16();
    s.rank = e.le_u32();
    s.packets = e.le_u64();
    if (s.continent > kMaxContinent || s.net_type > kMaxNetType) {
      return err("snapshot.bad_section", "ANALYTICS service has an out-of-range ordinal");
    }
    if (!a.services.empty()) {
      const auto& prev = a.services.back();
      if (std::tuple(prev.continent, prev.net_type, prev.rank) >=
          std::tuple(s.continent, s.net_type, s.rank)) {
        return err("snapshot.bad_section", "ANALYTICS services are not strictly ascending");
      }
    }
    a.services.push_back(s);
  }

  a.scanners.reserve(scanner_count);
  for (std::uint32_t i = 0; i < scanner_count; ++i) {
    util::ByteReader e = r.take(kScannerSize);
    analytics::ScannerProfile s;
    s.src_block = e.le_u32();
    s.blocks_touched = e.le_u32();
    s.ports_touched = e.le_u32();
    if (e.le_u32() != 0) {
      return err("snapshot.bad_section", "ANALYTICS scanner has non-zero padding");
    }
    s.est_packets = e.le_u64();
    if (!a.scanners.empty()) {
      const auto& prev = a.scanners.back();
      if (std::pair(prev.est_packets, s.src_block) <= std::pair(s.est_packets, prev.src_block)) {
        return err("snapshot.bad_section",
                   "ANALYTICS scanners are not sorted by volume desc, source asc");
      }
    }
    a.scanners.push_back(s);
  }
  return a;
}

util::Result<RunMetadata> parse_meta(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  RunMetadata m;
  m.seed = r.le_u64();
  m.spoof_tolerance_pkts = r.le_u64();
  m.flows_ingested = r.le_u64();
  m.created_unix_s = r.le_u64();
  m.threads = r.le_u32();
  m.shards = r.le_u32();
  m.days = r.le_u32();
  const std::uint32_t source_len = r.le_u32();
  if (!r.ok()) {
    return err("snapshot.bad_section", "META section shorter than its fixed fields");
  }
  if (r.remaining() != source_len) {
    return err("snapshot.bad_section", "META source string length mismatch");
  }
  const auto source = r.bytes(source_len);
  m.source.assign(source.begin(), source.end());
  return m;
}

util::Result<std::vector<PrefixEntry>> parse_prefixes(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  const std::uint32_t count = r.le_u32();
  if (!r.ok()) {
    return err("snapshot.bad_section", "PREFIXES section shorter than its count field");
  }
  if (r.remaining() != std::uint64_t{count} * kPrefixEntrySize) {
    return err("snapshot.bad_section", "PREFIXES entry count disagrees with section length");
  }
  std::vector<PrefixEntry> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    util::ByteReader e = r.take(kPrefixEntrySize);
    PrefixEntry p;
    p.base = e.le_u32();
    p.origin_asn = e.le_u32();
    p.length = e.u8();
    const std::uint64_t padding = e.be_uint(3);
    if (p.length > 32 || (p.base & ~net::Prefix::mask_for(p.length)) != 0) {
      return err("snapshot.bad_section", "PREFIXES entry is not a canonical prefix");
    }
    if (padding != 0) {
      return err("snapshot.bad_section", "PREFIXES entry has non-zero padding");
    }
    if (!out.empty() &&
        std::pair(out.back().base, out.back().length) >= std::pair(p.base, p.length)) {
      return err("snapshot.bad_section", "PREFIXES entries are not strictly ascending");
    }
    out.push_back(p);
  }
  return out;
}

util::Result<std::vector<BlockEntry>> parse_blocks(std::span<const std::uint8_t> body,
                                                   std::size_t prefix_count,
                                                   std::array<std::uint64_t, 3>& class_totals) {
  util::ByteReader r(body);
  const std::uint32_t count = r.le_u32();
  if (!r.ok()) {
    return err("snapshot.bad_section", "BLOCKS section shorter than its count field");
  }
  if (r.remaining() != std::uint64_t{count} * kBlockEntrySize) {
    return err("snapshot.bad_section", "BLOCKS entry count disagrees with section length");
  }
  std::vector<BlockEntry> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    util::ByteReader e = r.take(kBlockEntrySize);
    BlockEntry b;
    b.packed = e.le_u32();
    b.prefix_id = e.le_u32();
    if ((b.packed >> 26) != 0 || ((b.packed >> 24) & 0x3u) > 2) {
      return err("snapshot.bad_section", "BLOCKS entry has an invalid class");
    }
    if (b.prefix_id != BlockEntry::kNoPrefix && b.prefix_id >= prefix_count) {
      return err("snapshot.bad_section", "BLOCKS entry references a missing prefix");
    }
    if (!out.empty() && out.back().block_index() >= b.block_index()) {
      return err("snapshot.bad_section", "BLOCKS entries are not strictly ascending");
    }
    ++class_totals[static_cast<std::size_t>(b.cls())];
    out.push_back(b);
  }
  return out;
}

}  // namespace

std::string_view to_string(BlockClass cls) noexcept {
  switch (cls) {
    case BlockClass::kDark: return "dark";
    case BlockClass::kUnclean: return "unclean";
    case BlockClass::kGray: return "gray";
  }
  return "invalid";
}

TelescopeSnapshot build_snapshot(const pipeline::InferenceResult& result,
                                 const routing::Rib& rib, RunMetadata meta) {
  TelescopeSnapshot snapshot;
  snapshot.meta = std::move(meta);
  snapshot.funnel = result.funnel;
  snapshot.dark_count = result.dark.size();
  snapshot.unclean_count = result.unclean;
  snapshot.gray_count = result.gray;

  // Pass 1: gather every classified block with its covering announcement.
  struct Classified {
    net::Block24 block;
    BlockClass cls;
    std::optional<std::pair<net::Prefix, routing::Route>> covering;
  };
  std::vector<Classified> classified;
  classified.reserve(static_cast<std::size_t>(snapshot.dark_count + snapshot.unclean_count +
                                              snapshot.gray_count));
  std::map<std::pair<std::uint32_t, std::uint8_t>, std::uint32_t> prefix_ids;
  const auto gather = [&](const trie::Block24Set& set, BlockClass cls) {
    set.for_each([&](net::Block24 block) {
      Classified c{block, cls, rib.lookup(block.first_address())};
      if (c.covering.has_value()) {
        prefix_ids.emplace(std::pair(c.covering->first.base().value(),
                                     static_cast<std::uint8_t>(c.covering->first.length())),
                           0);
      }
      classified.push_back(std::move(c));
    });
  };
  gather(result.dark, BlockClass::kDark);
  gather(result.unclean_blocks, BlockClass::kUnclean);
  gather(result.gray_blocks, BlockClass::kGray);

  // The three class sets each iterate in ascending order; interleaving
  // them restores one globally ascending block sequence.
  std::sort(classified.begin(), classified.end(),
            [](const Classified& a, const Classified& b) { return a.block < b.block; });

  // Pass 2: number the referenced prefixes in (base, length) order — the
  // std::map already iterates that way — then emit the block records.
  snapshot.prefixes.reserve(prefix_ids.size());
  for (auto& [key, id] : prefix_ids) {
    id = static_cast<std::uint32_t>(snapshot.prefixes.size());
    PrefixEntry entry;
    entry.base = key.first;
    entry.length = key.second;
    entry.origin_asn = 0;  // patched below from the covering route
    snapshot.prefixes.push_back(entry);
  }
  snapshot.blocks.reserve(classified.size());
  for (const Classified& c : classified) {
    std::uint32_t prefix_id = BlockEntry::kNoPrefix;
    if (c.covering.has_value()) {
      const auto key = std::pair(c.covering->first.base().value(),
                                 static_cast<std::uint8_t>(c.covering->first.length()));
      prefix_id = prefix_ids.at(key);
      snapshot.prefixes[prefix_id].origin_asn = c.covering->second.origin.value();
    }
    snapshot.blocks.push_back(BlockEntry::make(c.block, c.cls, prefix_id));
  }
  return snapshot;
}

std::vector<std::uint8_t> serialize_snapshot(const TelescopeSnapshot& snapshot) {
  // Analytics-free snapshots stay on the version-1 wire form — the bytes a
  // v1 writer produced — so pre-analytics readers and golden files are
  // unaffected.  Analytics selects version 2 with the fifth section.
  const std::uint16_t version = snapshot.analytics.has_value() ? 2 : 1;
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(kSectionOrder.size());
  payloads.push_back(serialize_meta(snapshot.meta));
  payloads.push_back(serialize_funnel(snapshot));
  payloads.push_back(serialize_prefixes(snapshot));
  payloads.push_back(serialize_blocks(snapshot));
  if (snapshot.analytics.has_value()) {
    payloads.push_back(serialize_analytics(*snapshot.analytics));
  }

  const std::size_t table_size = payloads.size() * kTableEntrySize;
  std::uint64_t file_size = kHeaderSize + table_size + 4;
  for (const auto& p : payloads) file_size += p.size();

  std::vector<std::uint8_t> out;
  out.reserve(file_size);
  // push_back rather than a range insert: GCC 12's -Wstringop-overflow
  // false-positives on inserting a fixed array into an empty vector.
  for (const std::uint8_t byte : kMagic) out.push_back(byte);
  le_put_u16(out, version);
  le_put_u16(out, 0);  // flags
  le_put_u32(out, static_cast<std::uint32_t>(payloads.size()));
  le_put_u64(out, file_size);

  std::uint64_t offset = kHeaderSize + table_size + 4;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    le_put_u32(out, kSectionOrder[i]);
    le_put_u32(out, crc32(payloads[i]));
    le_put_u64(out, offset);
    le_put_u64(out, payloads[i].size());
    offset += payloads[i].size();
  }
  le_put_u32(out, crc32(out));  // table_crc seals header + table
  for (const auto& p : payloads) out.insert(out.end(), p.begin(), p.end());
  return out;
}

util::Result<TelescopeSnapshot> parse_snapshot(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  const auto magic = r.bytes(kMagic.size());
  const std::uint16_t version = r.le_u16();
  r.skip(2);  // flags
  const std::uint32_t section_count = r.le_u32();
  const std::uint64_t file_size = r.le_u64();
  if (!r.ok()) {
    return err("snapshot.truncated", "file shorter than the snapshot header");
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), magic.begin())) {
    return err("snapshot.bad_magic", "not a telescope snapshot (magic mismatch)");
  }
  if (version == 0 || version > kSnapshotVersion) {
    return err("snapshot.unsupported_version",
               "snapshot version " + std::to_string(version) + " is not supported (max " +
                   std::to_string(kSnapshotVersion) + ")");
  }
  const std::uint32_t expected_sections = version >= 2 ? 5 : 4;
  if (section_count != expected_sections) {
    return err("snapshot.bad_section",
               "version " + std::to_string(version) + " snapshots carry exactly " +
                   std::to_string(expected_sections) + " sections");
  }
  if (file_size != data.size()) {
    return err("snapshot.truncated", "file size disagrees with the header (" +
                                         std::to_string(data.size()) + " bytes on disk, " +
                                         std::to_string(file_size) + " declared)");
  }
  const std::size_t table_end = kHeaderSize + section_count * kTableEntrySize;
  util::ByteReader table = r.take(section_count * kTableEntrySize);
  const std::uint32_t table_crc = r.le_u32();
  if (!r.ok()) {
    return err("snapshot.truncated", "file ends inside the section table");
  }
  if (table_crc != crc32(data.first(table_end))) {
    return err("snapshot.bad_crc", "header/table checksum mismatch");
  }

  std::array<std::span<const std::uint8_t>, 5> sections;
  for (std::size_t i = 0; i < section_count; ++i) {
    const std::uint32_t kind = table.le_u32();
    const std::uint32_t crc = table.le_u32();
    const std::uint64_t offset = table.le_u64();
    const std::uint64_t length = table.le_u64();
    if (kind != kSectionOrder[i]) {
      return err("snapshot.bad_section", "unexpected section kind or order");
    }
    util::ByteReader file(data);
    file.skip(offset);
    sections[i] = file.bytes(length);
    if (offset < table_end + 4 || !file.ok()) {
      return err("snapshot.truncated", "section extends past the end of the file");
    }
    if (crc32(sections[i]) != crc) {
      return err("snapshot.bad_crc", "section " + std::to_string(kind) + " checksum mismatch");
    }
  }

  TelescopeSnapshot snapshot;
  auto meta = parse_meta(sections[0]);
  if (!meta.ok()) return meta.error();
  snapshot.meta = std::move(meta).value();

  if (sections[1].size() != kFunnelSize) {
    return err("snapshot.bad_section", "FUNNEL section has the wrong size");
  }
  util::ByteReader funnel(sections[1]);
  snapshot.funnel.seen = funnel.le_u64();
  snapshot.funnel.after_tcp = funnel.le_u64();
  snapshot.funnel.after_size = funnel.le_u64();
  snapshot.funnel.after_source = funnel.le_u64();
  snapshot.funnel.after_reserved = funnel.le_u64();
  snapshot.funnel.after_routed = funnel.le_u64();
  snapshot.funnel.after_volume = funnel.le_u64();
  snapshot.dark_count = funnel.le_u64();
  snapshot.unclean_count = funnel.le_u64();
  snapshot.gray_count = funnel.le_u64();

  auto prefixes = parse_prefixes(sections[2]);
  if (!prefixes.ok()) return prefixes.error();
  snapshot.prefixes = std::move(prefixes).value();

  std::array<std::uint64_t, 3> class_totals = {0, 0, 0};
  auto blocks = parse_blocks(sections[3], snapshot.prefixes.size(), class_totals);
  if (!blocks.ok()) return blocks.error();
  snapshot.blocks = std::move(blocks).value();

  if (class_totals[0] != snapshot.dark_count || class_totals[1] != snapshot.unclean_count ||
      class_totals[2] != snapshot.gray_count) {
    return err("snapshot.bad_section", "class totals disagree with the block records");
  }

  if (section_count == 5) {
    auto analytics =
        parse_analytics(sections[4], snapshot.blocks.size(), snapshot.prefixes.size());
    if (!analytics.ok()) return analytics.error();
    snapshot.analytics = std::move(analytics).value();
  }
  return snapshot;
}

util::Result<std::uint64_t> write_snapshot_file(const TelescopeSnapshot& snapshot,
                                                const std::string& path) {
  const std::vector<std::uint8_t> bytes = serialize_snapshot(snapshot);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return err("snapshot.io", "cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return err("snapshot.io", "short write to " + path);
  return static_cast<std::uint64_t>(bytes.size());
}

util::Result<TelescopeSnapshot> read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return err("snapshot.io", "cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0) in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) return err("snapshot.io", "short read from " + path);
  return parse_snapshot(bytes);
}

}  // namespace mtscope::serve
