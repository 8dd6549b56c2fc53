// Byte-order helpers shared by every wire codec and on-disk format.
//
// Host-endianness-agnostic by construction — every value is assembled from
// or split into explicit bytes:
//
//   * be_put_* — network byte order (big-endian), used by the IPFIX codec
//     and the packet-header serializers.
//   * le_put_* / le_patch_* — little-endian, the byte order of the
//     telescope snapshot format (DESIGN.md §10): snapshots are written once
//     and served many times on x86-class hardware, so the on-disk layout
//     matches the dominant load target.
//   * ByteReader — the one way a decoder reads bytes it did not write.
//     Every read is bounds-checked against the reader's span; an overrun
//     latches !ok() and yields zeros from then on, so a decoder reads a
//     whole structure and checks ok() once, mapping failure to its own
//     typed truncation error.
//   * crc32 — IEEE 802.3 polynomial (reflected, init/xorout 0xffffffff),
//     the seal of the snapshot sections, MTFLOW frames and MTBIN frames.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace mtscope::util {

// --- big-endian (network order) -------------------------------------------

inline void be_put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

inline void be_put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  be_put_u16(out, static_cast<std::uint16_t>(v >> 16));
  be_put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
}

inline void be_put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  be_put_u32(out, static_cast<std::uint32_t>(v >> 32));
  be_put_u32(out, static_cast<std::uint32_t>(v & 0xffffffff));
}

// --- little-endian (snapshot on-disk order) -------------------------------

inline void le_put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void le_put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  le_put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
  le_put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

inline void le_put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  le_put_u32(out, static_cast<std::uint32_t>(v & 0xffffffff));
  le_put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// Overwrite already-emitted little-endian fields in place — for length /
/// checksum fields patched after their section is serialized, and for
/// writing into fixed-width frames held in stack arrays (serve/wire.hpp).
inline void le_patch_u16(std::span<std::uint8_t> b, std::size_t at, std::uint16_t v) {
  b[at] = static_cast<std::uint8_t>(v & 0xff);
  b[at + 1] = static_cast<std::uint8_t>(v >> 8);
}

inline void le_patch_u32(std::span<std::uint8_t> b, std::size_t at, std::uint32_t v) {
  le_patch_u16(b, at, static_cast<std::uint16_t>(v & 0xffff));
  le_patch_u16(b, at + 2, static_cast<std::uint16_t>(v >> 16));
}

inline void le_patch_u64(std::span<std::uint8_t> b, std::size_t at, std::uint64_t v) {
  le_patch_u32(b, at, static_cast<std::uint32_t>(v & 0xffffffff));
  le_patch_u32(b, at + 4, static_cast<std::uint32_t>(v >> 32));
}

// --- bounds-checked reading ----------------------------------------------

/// A cursor over untrusted bytes.  Reads advance the cursor; a read past
/// the end latches failure, moves the cursor to the end and returns zero
/// (or an empty span / failed sub-reader), so every later read also
/// returns zero and one ok() check after a structure covers all of it.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) noexcept : bytes_(bytes) {}

  /// False once any read, skip or take has run past the end.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - at_; }

  std::uint8_t u8() noexcept {
    const std::uint8_t* p = advance(1);
    return p != nullptr ? p[0] : 0;
  }
  std::uint16_t be_u16() noexcept { return static_cast<std::uint16_t>(be_uint(2)); }
  std::uint32_t be_u32() noexcept { return static_cast<std::uint32_t>(be_uint(4)); }
  std::uint64_t be_u64() noexcept { return be_uint(8); }
  std::uint16_t le_u16() noexcept { return static_cast<std::uint16_t>(le_uint(2)); }
  std::uint32_t le_u32() noexcept { return static_cast<std::uint32_t>(le_uint(4)); }
  std::uint64_t le_u64() noexcept { return le_uint(8); }

  /// A big-endian unsigned integer `len` bytes wide (IPFIX fields are 1..8
  /// bytes).  `len` must be at most 8.
  std::uint64_t be_uint(std::size_t len) noexcept {
    const std::uint8_t* p = advance(len);
    std::uint64_t v = 0;
    if (p != nullptr) {
      for (std::size_t i = 0; i < len; ++i) v = (v << 8) | p[i];
    }
    return v;
  }

  /// The next n bytes as a raw span (for CRC input and strings).
  std::span<const std::uint8_t> bytes(std::size_t n) noexcept {
    const std::uint8_t* p = advance(n);
    return p != nullptr ? std::span<const std::uint8_t>(p, n) : std::span<const std::uint8_t>{};
  }

  /// A reader over the next n bytes; it starts failed if they are not all
  /// there.
  ByteReader take(std::size_t n) noexcept {
    ByteReader sub(bytes(n));
    sub.ok_ = ok_;
    return sub;
  }

  bool skip(std::size_t n) noexcept {
    advance(n);
    return ok_;
  }

 private:
  std::uint64_t le_uint(std::size_t len) noexcept {
    const std::uint8_t* p = advance(len);
    std::uint64_t v = 0;
    if (p != nullptr) {
      for (std::size_t i = len; i-- > 0;) v = (v << 8) | p[i];
    }
    return v;
  }

  const std::uint8_t* advance(std::size_t n) noexcept {
    if (n > bytes_.size() - at_) {
      ok_ = false;
      at_ = bytes_.size();
      return nullptr;
    }
    const std::uint8_t* p = bytes_.data() + at_;
    at_ += n;
    return p;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

// --- CRC32 (IEEE 802.3) ---------------------------------------------------

namespace detail {
inline constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();
}  // namespace detail

/// Incremental form: pass the previous return value as `seed` to checksum a
/// logically contiguous stream in pieces.  Start with the default seed.
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> data,
                                         std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const std::uint8_t byte : data) {
    c = detail::kCrc32Table[(c ^ byte) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace mtscope::util
