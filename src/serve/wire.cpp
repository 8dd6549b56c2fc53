#include "serve/wire.hpp"

#include <array>

#include "util/bytes.hpp"

namespace mtscope::serve::wire {

namespace {

using util::crc32;
using util::le_patch_u16;
using util::le_patch_u32;
using util::le_patch_u64;

util::Error wire_error(const char* code, std::string message) {
  return util::make_error(code, std::move(message));
}

/// Flags byte: only these two bits are defined; anything else is a
/// malformed frame.
constexpr std::uint8_t kFlagPrefix = 0x01;
constexpr std::uint8_t kFlagOrigin = 0x02;
constexpr std::uint8_t kKnownFlags = kFlagPrefix | kFlagOrigin;

/// count-in mirrors TelescopeIndex::for_each_in's contract: range queries
/// are over /24 blocks, so lengths past 24 have nothing to count and are
/// refused at the codec instead of silently answering 0.
constexpr std::uint8_t kMaxCountPlen = 24;

}  // namespace

void append_request(std::string& out, const Request& request) {
  std::array<std::uint8_t, kRequestSize> frame{};
  frame[0] = static_cast<std::uint8_t>(request.verb);
  frame[1] = request.plen;
  le_patch_u16(frame, 2, 0);
  le_patch_u32(frame, 4, request.addr.value());
  le_patch_u32(frame, 8, crc32(std::span(frame).first(8)));
  out.append(reinterpret_cast<const char*>(frame.data()), frame.size());
}

void append_response(std::string& out, const Response& response) {
  std::array<std::uint8_t, kResponseSize> frame{};
  frame[0] = static_cast<std::uint8_t>(response.status);
  frame[1] = response.cls;
  frame[2] = static_cast<std::uint8_t>((response.has_prefix ? kFlagPrefix : 0) |
                                       (response.has_origin ? kFlagOrigin : 0));
  frame[3] = response.plen;
  le_patch_u32(frame, 4, response.addr.value());
  if (response.status == Status::kCount) {
    le_patch_u64(frame, 8, response.count);
  } else {
    le_patch_u32(frame, 8, response.prefix_base);
    le_patch_u32(frame, 12, response.origin_asn);
  }
  le_patch_u32(frame, 16, crc32(std::span(frame).first(16)));
  out.append(reinterpret_cast<const char*>(frame.data()), frame.size());
}

util::Result<Request> decode_request(std::span<const std::uint8_t> bytes) {
  util::ByteReader frame(bytes);
  const auto sealed = frame.bytes(8);
  const std::uint32_t stored = frame.le_u32();
  if (!frame.ok()) {
    return wire_error("wire.truncated",
                      "request frame needs " + std::to_string(kRequestSize) + " bytes, got " +
                          std::to_string(bytes.size()));
  }
  // CRC first: a frame that fails the seal has no trustworthy fields, so
  // random corruption is always wire.bad_crc, never a misread verb.
  if (stored != crc32(sealed)) {
    return wire_error("wire.bad_crc", "request frame checksum mismatch");
  }
  util::ByteReader fields(sealed);
  Request request;
  const std::uint8_t verb = fields.u8();
  request.plen = fields.u8();
  const std::uint16_t reserved = fields.le_u16();
  request.addr = net::Ipv4Addr(fields.le_u32());
  if (verb != static_cast<std::uint8_t>(Verb::kLookup) &&
      verb != static_cast<std::uint8_t>(Verb::kCountIn)) {
    return wire_error("wire.bad_verb", "unknown verb " + std::to_string(verb));
  }
  if (reserved != 0) {
    return wire_error("wire.bad_reserved", "reserved field must be zero");
  }
  request.verb = static_cast<Verb>(verb);
  if (request.verb == Verb::kLookup ? request.plen != 0 : request.plen > kMaxCountPlen) {
    return wire_error("wire.bad_plen",
                      "prefix length " + std::to_string(request.plen) + " invalid for verb " +
                          std::to_string(verb));
  }
  return request;
}

util::Result<Response> decode_response(std::span<const std::uint8_t> bytes) {
  util::ByteReader frame(bytes);
  const auto sealed = frame.bytes(16);
  const std::uint32_t stored = frame.le_u32();
  if (!frame.ok()) {
    return wire_error("wire.truncated",
                      "response frame needs " + std::to_string(kResponseSize) + " bytes, got " +
                          std::to_string(bytes.size()));
  }
  if (stored != crc32(sealed)) {
    return wire_error("wire.bad_crc", "response frame checksum mismatch");
  }
  util::ByteReader fields(sealed);
  Response response;
  const std::uint8_t status = fields.u8();
  response.cls = fields.u8();
  const std::uint8_t flags = fields.u8();
  response.plen = fields.u8();
  response.addr = net::Ipv4Addr(fields.le_u32());
  const std::uint64_t payload = fields.le_u64();
  if (status > static_cast<std::uint8_t>(Status::kCount)) {
    return wire_error("wire.bad_status", "unknown status " + std::to_string(status));
  }
  if ((flags & ~kKnownFlags) != 0) {
    return wire_error("wire.bad_flags", "undefined flag bits set");
  }
  response.status = static_cast<Status>(status);
  response.has_prefix = (flags & kFlagPrefix) != 0;
  response.has_origin = (flags & kFlagOrigin) != 0;
  if (response.status == Status::kVerdict && response.cls > kClassNone) {
    return wire_error("wire.bad_class", "unknown class code " + std::to_string(response.cls));
  }
  if (response.plen > 32) {
    return wire_error("wire.bad_plen", "prefix length " + std::to_string(response.plen));
  }
  if (response.status == Status::kCount) {
    response.count = payload;
  } else {
    response.prefix_base = static_cast<std::uint32_t>(payload);
    response.origin_asn = static_cast<std::uint32_t>(payload >> 32);
  }
  return response;
}

InvalidReason invalid_reason(std::string_view error_code) noexcept {
  if (error_code == "wire.bad_verb") return InvalidReason::kBadVerb;
  if (error_code == "wire.bad_reserved") return InvalidReason::kBadReserved;
  if (error_code == "wire.bad_plen") return InvalidReason::kBadPlen;
  return InvalidReason::kBadCrc;
}

Response invalid_response_for(std::span<const std::uint8_t> frame, const util::Error& error) {
  const InvalidReason reason = invalid_reason(error.code);
  // The addr field is echoed only when the frame's seal held; after a CRC
  // failure no field is trustworthy, so the reply carries 0.
  util::ByteReader fields(frame);
  fields.skip(4);
  const std::uint32_t addr = reason == InvalidReason::kBadCrc ? 0 : fields.le_u32();
  return make_invalid_response(net::Ipv4Addr(addr), reason);
}

Response make_verdict_response(net::Ipv4Addr addr,
                               const std::optional<TelescopeIndex::Verdict>& verdict) {
  Response response;
  response.status = Status::kVerdict;
  response.addr = addr;
  if (!verdict.has_value()) {
    response.cls = kClassNone;
    return response;
  }
  response.cls = static_cast<std::uint8_t>(verdict->cls);
  if (verdict->prefix.has_value()) {
    response.has_prefix = true;
    response.plen = static_cast<std::uint8_t>(verdict->prefix->length());
    response.prefix_base = verdict->prefix->base().value();
  }
  if (verdict->origin.has_value()) {
    response.has_origin = true;
    response.origin_asn = verdict->origin->value();
  }
  return response;
}

Response make_invalid_response(net::Ipv4Addr addr, InvalidReason reason) {
  Response response;
  response.status = Status::kInvalid;
  response.cls = static_cast<std::uint8_t>(reason);
  response.addr = addr;
  return response;
}

Response make_count_response(net::Ipv4Addr base, std::uint8_t plen, std::uint64_t count) {
  Response response;
  response.status = Status::kCount;
  response.cls = 0;
  response.plen = plen;
  response.addr = base;
  response.count = count;
  return response;
}

}  // namespace mtscope::serve::wire
