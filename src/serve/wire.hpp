// MTBIN: the compact binary query protocol served alongside the line
// protocol on the same port (DESIGN.md §12).
//
// A connection opts in by sending the 8-byte preamble "MTBIN/1\n" as its
// very first bytes; anything else (including any dotted-quad line) keeps
// the connection on the line protocol, so existing clients never change.
// After the preamble the stream is a sequence of fixed-width frames —
// 12-byte requests, 20-byte responses — with no per-request text parsing
// or formatting on either side.
//
// Every frame is sealed by a trailing CRC32 (IEEE 802.3, the same
// polynomial the snapshot format uses) over the bytes before it, so any
// single-byte corruption is detected rather than silently answered as a
// different query.  Fixed widths mean a corrupt frame never desyncs the
// stream: the server replies with one invalid-frame response and decoding
// resumes at the next 12-byte boundary.
//
// Request frame (12 bytes, little-endian):
//   off 0  u8   verb      1 = lookup, 2 = count-in
//   off 1  u8   plen      prefix length for count-in (0..24); 0 for lookup
//   off 2  u16  reserved  must be zero
//   off 4  u32  addr      IPv4 address (lookup) or range base (count-in)
//   off 8  u32  crc32     over bytes [0, 8)
//
// Response frame (20 bytes, little-endian):
//   off 0  u8   status    0 = verdict, 1 = invalid frame, 2 = count
//   off 1  u8   cls       verdict: 0 dark / 1 unclean / 2 gray / 3 none
//                         invalid: the InvalidReason code
//   off 2  u8   flags     bit0 = has prefix, bit1 = has origin AS
//   off 3  u8   plen      covering-prefix length / echoed count-in length
//   off 4  u32  addr      echo of the request address
//   off 8  u64  payload   verdict: prefix base (low u32) + origin ASN
//                         (high u32); count: the /24 count
//   off 16 u32  crc32     over bytes [0, 16)
//
// Decoding fails typed (wire.truncated / wire.bad_crc / wire.bad_verb /
// wire.bad_reserved / wire.bad_plen / wire.bad_status / wire.bad_class /
// wire.bad_flags), mirroring the snapshot codec's error taxonomy: every
// malformed frame is an expected condition, never a crash.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "net/ipv4.hpp"
#include "serve/telescope_index.hpp"
#include "util/result.hpp"

namespace mtscope::serve::wire {

/// Sent once by a binary client immediately after connect.
inline constexpr std::string_view kPreamble = "MTBIN/1\n";
inline constexpr std::size_t kRequestSize = 12;
inline constexpr std::size_t kResponseSize = 20;

enum class Verb : std::uint8_t {
  kLookup = 1,   // classify one address
  kCountIn = 2,  // count classified /24s inside addr/plen
};

enum class Status : std::uint8_t {
  kVerdict = 0,  // answer to a lookup
  kInvalid = 1,  // the request frame was malformed; cls carries the reason
  kCount = 2,    // answer to a count-in
};

/// Why a request frame was refused, echoed in an invalid response's `cls`
/// byte so a binary client can tell corruption from a bad query.
enum class InvalidReason : std::uint8_t {
  kBadCrc = 1,
  kBadVerb = 2,
  kBadReserved = 3,
  kBadPlen = 4,
};

/// The verdict `cls` code for "not in the meta-telescope map" — the
/// binary rendering of the line protocol's "<ip> none".  Codes 0..2 are
/// BlockClass values verbatim.
inline constexpr std::uint8_t kClassNone = 3;

struct Request {
  Verb verb = Verb::kLookup;
  std::uint8_t plen = 0;  // count-in only; 0 for lookup
  net::Ipv4Addr addr;

  friend bool operator==(const Request&, const Request&) noexcept = default;
};

struct Response {
  Status status = Status::kVerdict;
  std::uint8_t cls = kClassNone;  // class code, or InvalidReason when invalid
  bool has_prefix = false;
  bool has_origin = false;
  std::uint8_t plen = 0;
  net::Ipv4Addr addr;
  std::uint32_t prefix_base = 0;  // covering-prefix base when has_prefix
  std::uint32_t origin_asn = 0;   // origin AS when has_origin
  std::uint64_t count = 0;        // count responses only

  friend bool operator==(const Response&, const Response&) noexcept = default;
};

/// Append one encoded frame to `out` (the server's batch buffer or a
/// client's send buffer).  Encoding cannot fail: the structs can only
/// hold representable values, and the CRC is computed here.
void append_request(std::string& out, const Request& request);
void append_response(std::string& out, const Response& response);

/// Decode exactly one frame from the front of `bytes`.  Shorter input is
/// wire.truncated; the CRC is checked before any field is interpreted, so
/// random corruption always surfaces as wire.bad_crc.
[[nodiscard]] util::Result<Request> decode_request(std::span<const std::uint8_t> bytes);
[[nodiscard]] util::Result<Response> decode_response(std::span<const std::uint8_t> bytes);

/// Map a decode_request error code to the reason byte an invalid-frame
/// response carries (wire.bad_crc -> kBadCrc, ...).
[[nodiscard]] InvalidReason invalid_reason(std::string_view error_code) noexcept;

/// The invalid-frame response for a request frame decode_request refused
/// with `error`: its reason byte, and the frame's addr echoed only when
/// the frame's CRC held.
[[nodiscard]] Response invalid_response_for(std::span<const std::uint8_t> frame,
                                            const util::Error& error);

/// Build the binary answer for one lookup — the exact semantic twin of
/// format_verdict(addr, verdict), so the two protocols cannot drift.
[[nodiscard]] Response make_verdict_response(
    net::Ipv4Addr addr, const std::optional<TelescopeIndex::Verdict>& verdict);

[[nodiscard]] Response make_invalid_response(net::Ipv4Addr addr, InvalidReason reason);

[[nodiscard]] Response make_count_response(net::Ipv4Addr base, std::uint8_t plen,
                                           std::uint64_t count);

}  // namespace mtscope::serve::wire
