// The MTBIN frame codec (serve/wire.hpp): byte-exact encodings, round
// trips for every request/response kind, one test per typed decode error,
// and the seeded single-byte corruption sweeps — the same 512-flip idiom
// test_snapshot uses for the persistence codec — proving a corrupted
// frame always surfaces as a typed wire.* error (almost always
// wire.bad_crc, since the seal is checked before any field is read) and
// never decodes as a different valid query.
#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "serve/snapshot.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mtscope {
namespace {

using serve::wire::InvalidReason;
using serve::wire::Request;
using serve::wire::Response;
using serve::wire::Status;
using serve::wire::Verb;

std::vector<std::uint8_t> encode(const Request& request) {
  std::string out;
  serve::wire::append_request(out, request);
  return {out.begin(), out.end()};
}

std::vector<std::uint8_t> encode(const Response& response) {
  std::string out;
  serve::wire::append_response(out, response);
  return {out.begin(), out.end()};
}

// ---------------------------------------------------------------------------
// Byte-exact layout: the wire format is a contract, not an implementation
// detail — pin offsets and endianness so a refactor cannot silently move
// a field.

TEST(WireLayout, RequestFrameBytes) {
  Request request;
  request.verb = Verb::kCountIn;
  request.plen = 24;
  request.addr = net::Ipv4Addr::from_octets(203, 0, 113, 0);
  const auto bytes = encode(request);
  ASSERT_EQ(bytes.size(), serve::wire::kRequestSize);
  EXPECT_EQ(bytes[0], 2u);   // verb
  EXPECT_EQ(bytes[1], 24u);  // plen
  EXPECT_EQ(bytes[2], 0u);   // reserved
  EXPECT_EQ(bytes[3], 0u);
  util::ByteReader tail(std::span<const std::uint8_t>(bytes).subspan(4));
  EXPECT_EQ(tail.le_u32(), request.addr.value());
  EXPECT_EQ(tail.le_u32(), util::crc32(std::span(bytes).first(8)));
}

TEST(WireLayout, ResponseFrameBytes) {
  Response response;
  response.status = Status::kVerdict;
  response.cls = 0;  // dark
  response.has_prefix = true;
  response.has_origin = true;
  response.plen = 8;
  response.addr = net::Ipv4Addr::from_octets(10, 0, 0, 7);
  response.prefix_base = net::Ipv4Addr::from_octets(10, 0, 0, 0).value();
  response.origin_asn = 65001;
  const auto bytes = encode(response);
  ASSERT_EQ(bytes.size(), serve::wire::kResponseSize);
  EXPECT_EQ(bytes[0], 0u);  // status verdict
  EXPECT_EQ(bytes[1], 0u);  // class dark
  EXPECT_EQ(bytes[2], 0x03u);  // has_prefix | has_origin
  EXPECT_EQ(bytes[3], 8u);
  util::ByteReader tail(std::span<const std::uint8_t>(bytes).subspan(4));
  EXPECT_EQ(tail.le_u32(), response.addr.value());
  EXPECT_EQ(tail.le_u32(), response.prefix_base);
  EXPECT_EQ(tail.le_u32(), 65001u);
  EXPECT_EQ(tail.le_u32(), util::crc32(std::span(bytes).first(16)));
}

// ---------------------------------------------------------------------------
// Round trips.

TEST(WireRoundTrip, LookupRequest) {
  Request request;
  request.verb = Verb::kLookup;
  request.addr = net::Ipv4Addr::from_octets(192, 168, 5, 44);
  const auto bytes = encode(request);
  const auto decoded = serve::wire::decode_request(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value(), request);
}

TEST(WireRoundTrip, CountInRequestEveryLength) {
  for (std::uint8_t plen = 0; plen <= 24; ++plen) {
    Request request;
    request.verb = Verb::kCountIn;
    request.plen = plen;
    request.addr = net::Ipv4Addr(0xc0000200u);
    const auto decoded = serve::wire::decode_request(encode(request));
    ASSERT_TRUE(decoded.ok()) << "plen " << int(plen);
    EXPECT_EQ(decoded.value(), request);
  }
}

TEST(WireRoundTrip, VerdictResponseAllClasses) {
  for (std::uint8_t cls = 0; cls <= serve::wire::kClassNone; ++cls) {
    Response response;
    response.status = Status::kVerdict;
    response.cls = cls;
    response.addr = net::Ipv4Addr::from_octets(10, 1, 2, 3);
    if (cls < serve::wire::kClassNone) {
      response.has_prefix = true;
      response.has_origin = true;
      response.plen = 16;
      response.prefix_base = net::Ipv4Addr::from_octets(10, 1, 0, 0).value();
      response.origin_asn = 64512 + cls;
    }
    const auto decoded = serve::wire::decode_response(encode(response));
    ASSERT_TRUE(decoded.ok()) << "class " << int(cls);
    EXPECT_EQ(decoded.value(), response);
  }
}

TEST(WireRoundTrip, InvalidAndCountResponses) {
  const auto invalid = serve::wire::make_invalid_response(net::Ipv4Addr(0xdeadbeefu),
                                                         InvalidReason::kBadPlen);
  auto decoded = serve::wire::decode_response(encode(invalid));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), invalid);
  EXPECT_EQ(decoded.value().cls, static_cast<std::uint8_t>(InvalidReason::kBadPlen));

  const auto count = serve::wire::make_count_response(net::Ipv4Addr::from_octets(10, 0, 0, 0),
                                                      8, 0x1234'5678'9abcull);
  decoded = serve::wire::decode_response(encode(count));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), count);
  EXPECT_EQ(decoded.value().count, 0x1234'5678'9abcull);
}

// ---------------------------------------------------------------------------
// make_verdict_response mirrors the line protocol's format_verdict.

TEST(WireVerdict, NoneLookupMapsToClassNone) {
  const auto response = serve::wire::make_verdict_response(net::Ipv4Addr(1), std::nullopt);
  EXPECT_EQ(response.status, Status::kVerdict);
  EXPECT_EQ(response.cls, serve::wire::kClassNone);
  EXPECT_FALSE(response.has_prefix);
  EXPECT_FALSE(response.has_origin);
}

TEST(WireVerdict, FullVerdictCarriesPrefixAndOrigin) {
  serve::TelescopeIndex::Verdict verdict;
  verdict.block = net::Block24::containing(net::Ipv4Addr::from_octets(10, 0, 1, 0));
  verdict.cls = serve::BlockClass::kGray;
  verdict.prefix = net::Prefix(net::Ipv4Addr::from_octets(10, 0, 0, 0), 8);
  verdict.origin = net::AsNumber(65001);
  const auto addr = net::Ipv4Addr::from_octets(10, 0, 1, 9);
  const auto response = serve::wire::make_verdict_response(addr, verdict);
  EXPECT_EQ(response.cls, static_cast<std::uint8_t>(serve::BlockClass::kGray));
  EXPECT_TRUE(response.has_prefix);
  EXPECT_TRUE(response.has_origin);
  EXPECT_EQ(response.plen, 8u);
  EXPECT_EQ(response.prefix_base, net::Ipv4Addr::from_octets(10, 0, 0, 0).value());
  EXPECT_EQ(response.origin_asn, 65001u);
  EXPECT_EQ(response.addr, addr);
}

// ---------------------------------------------------------------------------
// One test per typed decode error.

TEST(WireErrors, TruncatedFrames) {
  Request request;
  request.addr = net::Ipv4Addr(42);
  auto bytes = encode(request);
  bytes.pop_back();
  EXPECT_EQ(serve::wire::decode_request(bytes).error().code, "wire.truncated");
  EXPECT_EQ(serve::wire::decode_request({}).error().code, "wire.truncated");
  EXPECT_EQ(serve::wire::decode_response(bytes).error().code, "wire.truncated");
}

TEST(WireErrors, RequestBadCrc) {
  auto bytes = encode(Request{});
  bytes[8] ^= 0x01;
  EXPECT_EQ(serve::wire::decode_request(bytes).error().code, "wire.bad_crc");
}

// Field-level errors need a re-sealed CRC, otherwise the seal check (which
// runs first) would mask them.
std::vector<std::uint8_t> corrupt_and_reseal_request(std::size_t at, std::uint8_t value) {
  Request request;
  request.verb = Verb::kCountIn;
  request.plen = 8;
  request.addr = net::Ipv4Addr(0x0a000000u);
  auto bytes = encode(request);
  bytes[at] = value;
  util::le_patch_u32(bytes, 8, util::crc32(std::span(bytes).first(8)));
  return bytes;
}

TEST(WireErrors, RequestBadVerb) {
  EXPECT_EQ(serve::wire::decode_request(corrupt_and_reseal_request(0, 0)).error().code,
            "wire.bad_verb");
  EXPECT_EQ(serve::wire::decode_request(corrupt_and_reseal_request(0, 3)).error().code,
            "wire.bad_verb");
}

TEST(WireErrors, RequestBadReserved) {
  EXPECT_EQ(serve::wire::decode_request(corrupt_and_reseal_request(2, 1)).error().code,
            "wire.bad_reserved");
  EXPECT_EQ(serve::wire::decode_request(corrupt_and_reseal_request(3, 0x80)).error().code,
            "wire.bad_reserved");
}

TEST(WireErrors, RequestBadPlen) {
  // count-in past /24 has nothing to count; lookup must carry plen 0.
  EXPECT_EQ(serve::wire::decode_request(corrupt_and_reseal_request(1, 25)).error().code,
            "wire.bad_plen");
  Request lookup;
  lookup.verb = Verb::kLookup;
  auto bytes = encode(lookup);
  bytes[1] = 1;
  util::le_patch_u32(bytes, 8, util::crc32(std::span(bytes).first(8)));
  EXPECT_EQ(serve::wire::decode_request(bytes).error().code, "wire.bad_plen");
}

std::vector<std::uint8_t> corrupt_and_reseal_response(std::size_t at, std::uint8_t value) {
  auto bytes = encode(serve::wire::make_count_response(net::Ipv4Addr(0x0a000000u), 8, 7));
  bytes[at] = value;
  util::le_patch_u32(bytes, 16, util::crc32(std::span(bytes).first(16)));
  return bytes;
}

TEST(WireErrors, ResponseBadCrcStatusFlagsClassPlen) {
  auto crc = encode(Response{});
  crc[16] ^= 0x40;
  EXPECT_EQ(serve::wire::decode_response(crc).error().code, "wire.bad_crc");

  EXPECT_EQ(serve::wire::decode_response(corrupt_and_reseal_response(0, 3)).error().code,
            "wire.bad_status");
  EXPECT_EQ(serve::wire::decode_response(corrupt_and_reseal_response(2, 0x04)).error().code,
            "wire.bad_flags");
  EXPECT_EQ(serve::wire::decode_response(corrupt_and_reseal_response(3, 33)).error().code,
            "wire.bad_plen");

  Response verdict;  // defaults: status verdict, cls none
  auto bytes = encode(verdict);
  bytes[1] = serve::wire::kClassNone + 1;
  util::le_patch_u32(bytes, 16, util::crc32(std::span(bytes).first(16)));
  EXPECT_EQ(serve::wire::decode_response(bytes).error().code, "wire.bad_class");
}

TEST(WireErrors, InvalidReasonMapping) {
  EXPECT_EQ(serve::wire::invalid_reason("wire.bad_verb"), InvalidReason::kBadVerb);
  EXPECT_EQ(serve::wire::invalid_reason("wire.bad_reserved"), InvalidReason::kBadReserved);
  EXPECT_EQ(serve::wire::invalid_reason("wire.bad_plen"), InvalidReason::kBadPlen);
  EXPECT_EQ(serve::wire::invalid_reason("wire.bad_crc"), InvalidReason::kBadCrc);
  EXPECT_EQ(serve::wire::invalid_reason("wire.truncated"), InvalidReason::kBadCrc);
}

TEST(WireErrors, InvalidResponseEchoesAddrOnlyUnderItsSeal) {
  // A field error under a good seal echoes the request's addr; a CRC
  // failure means no field is trustworthy, so the echo is 0.
  const auto bad_verb = corrupt_and_reseal_request(0, 9);
  const auto invalid = serve::wire::invalid_response_for(
      bad_verb, serve::wire::decode_request(bad_verb).error());
  EXPECT_EQ(invalid, serve::wire::make_invalid_response(net::Ipv4Addr(0x0a000000u),
                                                        InvalidReason::kBadVerb));

  auto bad_crc = corrupt_and_reseal_request(0, 9);
  bad_crc[8] ^= 0x01;
  const auto unsealed = serve::wire::invalid_response_for(
      bad_crc, serve::wire::decode_request(bad_crc).error());
  EXPECT_EQ(unsealed,
            serve::wire::make_invalid_response(net::Ipv4Addr(0), InvalidReason::kBadCrc));
}

// ---------------------------------------------------------------------------
// Seeded corruption sweeps, mirroring test_snapshot's 512-flip idiom: a
// single flipped byte anywhere in a frame must yield a typed wire.* error
// — never a successful decode of a different query, never a crash.

TEST(WireCorruption, RequestSingleByteFlipSweep) {
  Request request;
  request.verb = Verb::kCountIn;
  request.plen = 16;
  request.addr = net::Ipv4Addr::from_octets(198, 51, 100, 0);
  const auto clean = encode(request);

  util::Rng rng(0xc0ffee);
  for (int i = 0; i < 512; ++i) {
    auto bytes = clean;
    const auto at = static_cast<std::size_t>(rng.uniform(bytes.size()));
    const auto flip = static_cast<std::uint8_t>(1 + rng.uniform(255));
    bytes[at] ^= flip;
    const auto decoded = serve::wire::decode_request(bytes);
    ASSERT_FALSE(decoded.ok()) << "flip 0x" << std::hex << int(flip) << " at " << std::dec << at
                               << " decoded as a valid frame";
    EXPECT_TRUE(decoded.error().code.starts_with("wire."))
        << at << ": " << decoded.error().code;
  }
}

TEST(WireCorruption, ResponseSingleByteFlipSweep) {
  Response response;
  response.status = Status::kVerdict;
  response.cls = 1;  // unclean
  response.has_prefix = true;
  response.has_origin = true;
  response.plen = 12;
  response.addr = net::Ipv4Addr::from_octets(172, 16, 9, 1);
  response.prefix_base = net::Ipv4Addr::from_octets(172, 16, 0, 0).value();
  response.origin_asn = 65002;
  const auto clean = encode(response);

  util::Rng rng(0xc0ffee);
  for (int i = 0; i < 512; ++i) {
    auto bytes = clean;
    const auto at = static_cast<std::size_t>(rng.uniform(bytes.size()));
    const auto flip = static_cast<std::uint8_t>(1 + rng.uniform(255));
    bytes[at] ^= flip;
    const auto decoded = serve::wire::decode_response(bytes);
    ASSERT_FALSE(decoded.ok()) << "flip 0x" << std::hex << int(flip) << " at " << std::dec << at
                               << " decoded as a valid frame";
    EXPECT_TRUE(decoded.error().code.starts_with("wire."))
        << at << ": " << decoded.error().code;
  }
}

}  // namespace
}  // namespace mtscope
