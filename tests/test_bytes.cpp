// Byte-order helpers, ByteReader and CRC32: the shared foundation under the
// IPFIX codec, packet-header parsers, MTFLOW, MTSNAP and MTBIN.  Pins the
// wire bytes for each width in both endiannesses, the reader's overrun
// contract, the incremental-CRC contract, and the IEEE 802.3 check value.
#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

namespace mtscope {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

TEST(Bytes, BigEndianRoundTripPinsWireOrder) {
  std::vector<std::uint8_t> out;
  util::be_put_u16(out, 0x1234);
  util::be_put_u32(out, 0xdeadbeef);
  util::be_put_u64(out, 0x0102030405060708ull);
  const std::vector<std::uint8_t> expected = {0x12, 0x34, 0xde, 0xad, 0xbe, 0xef,
                                              0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                                              0x07, 0x08};
  EXPECT_EQ(out, expected);
  util::ByteReader r(out);
  EXPECT_EQ(r.be_u16(), 0x1234);
  EXPECT_EQ(r.be_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.be_u64(), 0x0102030405060708ull);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, LittleEndianRoundTripPinsWireOrder) {
  std::vector<std::uint8_t> out;
  util::le_put_u16(out, 0x1234);
  util::le_put_u32(out, 0xdeadbeef);
  util::le_put_u64(out, 0x0102030405060708ull);
  const std::vector<std::uint8_t> expected = {0x34, 0x12, 0xef, 0xbe, 0xad, 0xde,
                                              0x08, 0x07, 0x06, 0x05, 0x04, 0x03,
                                              0x02, 0x01};
  EXPECT_EQ(out, expected);
  util::ByteReader r(out);
  EXPECT_EQ(r.le_u16(), 0x1234);
  EXPECT_EQ(r.le_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.le_u64(), 0x0102030405060708ull);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, EndiannessesMirrorEachOther) {
  std::vector<std::uint8_t> be, le;
  util::be_put_u32(be, 0x11223344);
  util::le_put_u32(le, 0x11223344);
  const std::vector<std::uint8_t> reversed(le.rbegin(), le.rend());
  EXPECT_EQ(be, reversed);
}

TEST(Bytes, LePatchOverwritesInPlace) {
  std::vector<std::uint8_t> out;
  util::le_put_u32(out, 0);          // placeholder
  util::le_put_u32(out, 0xffffffff); // neighbour must stay untouched
  util::le_patch_u32(out, 0, 0xcafebabe);
  util::ByteReader r(out);
  EXPECT_EQ(r.le_u32(), 0xcafebabeu);
  EXPECT_EQ(r.le_u32(), 0xffffffffu);
}

TEST(Bytes, LePatchEveryWidthMatchesLePut) {
  // The patch family writes into pre-sized frames (serve/wire.hpp); each
  // width must produce exactly the bytes le_put_* appends.
  std::vector<std::uint8_t> put;
  util::le_put_u16(put, 0xbeef);
  util::le_put_u32(put, 0x11223344);
  util::le_put_u64(put, 0x0102030405060708ull);
  std::vector<std::uint8_t> patched(put.size(), 0xaa);
  util::le_patch_u16(patched, 0, 0xbeef);
  util::le_patch_u32(patched, 2, 0x11223344);
  util::le_patch_u64(patched, 6, 0x0102030405060708ull);
  EXPECT_EQ(patched, put);
}

TEST(Bytes, ExtremeValuesSurvive) {
  std::vector<std::uint8_t> out;
  util::le_put_u64(out, 0);
  util::le_put_u64(out, ~0ull);
  util::be_put_u64(out, 0);
  util::be_put_u64(out, ~0ull);
  util::ByteReader r(out);
  EXPECT_EQ(r.le_u64(), 0u);
  EXPECT_EQ(r.le_u64(), ~0ull);
  EXPECT_EQ(r.be_u64(), 0u);
  EXPECT_EQ(r.be_u64(), ~0ull);
}

TEST(ByteReader, BeUintReadsEveryWidth) {
  const std::vector<std::uint8_t> bytes = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  for (std::size_t len = 1; len <= bytes.size(); ++len) {
    util::ByteReader r(bytes);
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < len; ++i) expected = (expected << 8) | bytes[i];
    EXPECT_EQ(r.be_uint(len), expected) << "width " << len;
    EXPECT_EQ(r.remaining(), bytes.size() - len);
  }
}

TEST(ByteReader, OverrunLatchesFailureAndReadsZero) {
  const std::vector<std::uint8_t> bytes = {0xff, 0xff, 0xff};
  util::ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0xffu);
  EXPECT_EQ(r.le_u32(), 0u);  // 2 bytes left: overrun
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.u8(), 0u);  // latched: the bytes an overrun skipped stay unread
  EXPECT_TRUE(r.bytes(0).empty());
  EXPECT_FALSE(r.skip(0));
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, TakeIsBoundedAndInheritsFailure) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5};
  util::ByteReader r(bytes);
  util::ByteReader first = r.take(2);
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(first.le_u16(), 0x0201u);
  EXPECT_EQ(first.u8(), 0u);  // the sub-reader cannot reach its parent's bytes
  EXPECT_FALSE(first.ok());
  EXPECT_TRUE(r.ok());  // a sub-reader's overrun is its own
  EXPECT_EQ(r.remaining(), 3u);

  util::ByteReader too_long = r.take(4);
  EXPECT_FALSE(too_long.ok());
  EXPECT_EQ(too_long.remaining(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.take(0).ok());  // a failed reader only hands out failed readers
}

TEST(ByteReader, BytesAndSkipAdvanceTheCursor) {
  const std::vector<std::uint8_t> bytes = {'a', 'b', 'c', 0x2a};
  util::ByteReader r(bytes);
  const auto text = r.bytes(2);
  ASSERT_EQ(text.size(), 2u);
  EXPECT_EQ(text[0], 'a');
  EXPECT_EQ(text[1], 'b');
  EXPECT_TRUE(r.skip(1));
  EXPECT_EQ(r.u8(), 0x2au);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(util::ByteReader(std::span<const std::uint8_t>{}).skip(0));  // a zero-width read of nothing is fine
}

TEST(Crc32, IeeeCheckValue) {
  // The standard check value for the IEEE 802.3 CRC: crc32("123456789").
  EXPECT_EQ(util::crc32(bytes_of("123456789")), 0xcbf43926u);
}

TEST(Crc32, EmptyInputIsZero) {
  EXPECT_EQ(util::crc32({}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog");
  const std::uint32_t whole = util::crc32(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::span<const std::uint8_t> all(data);
    const std::uint32_t head = util::crc32(all.subspan(0, split));
    EXPECT_EQ(util::crc32(all.subspan(split), head), whole) << "split at " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  auto data = bytes_of("MTSNAP payload");
  const std::uint32_t clean = util::crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(util::crc32(data), clean) << "byte " << i << " bit " << bit;
      data[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

}  // namespace
}  // namespace mtscope
