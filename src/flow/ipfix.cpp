#include "flow/ipfix.hpp"

#include <unordered_map>

#include "util/bytes.hpp"

namespace mtscope::flow {

namespace {

using util::be_put_u16;
using util::be_put_u32;
using util::be_put_u64;

constexpr std::uint16_t kVersion = 10;
constexpr std::size_t kMessageHeaderSize = 16;
constexpr std::size_t kSetHeaderSize = 4;
constexpr std::uint16_t kTemplateSetId = 2;

// Our template: fixed field order; total record size 42 bytes.
struct FieldSpec {
  std::uint16_t element_id;
  std::uint16_t length;
};
constexpr FieldSpec kTemplateFields[] = {
    {InformationElement::kSourceIPv4Address, 4},
    {InformationElement::kDestinationIPv4Address, 4},
    {InformationElement::kSourceTransportPort, 2},
    {InformationElement::kDestinationTransportPort, 2},
    {InformationElement::kProtocolIdentifier, 1},
    {InformationElement::kTcpControlBits, 1},
    {InformationElement::kPacketDeltaCount, 8},
    {InformationElement::kOctetDeltaCount, 8},
    {InformationElement::kFlowStartMicroseconds, 8},
    {InformationElement::kFlowEndMicroseconds, 8},
    {InformationElement::kSamplingPacketInterval, 4},
};
constexpr std::size_t kFieldCount = std::size(kTemplateFields);
constexpr std::size_t kRecordSize = 4 + 4 + 2 + 2 + 1 + 1 + 8 + 8 + 8 + 8 + 4;

/// Append the template set for our record layout.
void append_template_set(std::vector<std::uint8_t>& out, std::uint16_t template_id) {
  be_put_u16(out, kTemplateSetId);
  be_put_u16(out, static_cast<std::uint16_t>(kSetHeaderSize + 4 + 4 * kFieldCount));
  be_put_u16(out, template_id);
  be_put_u16(out, static_cast<std::uint16_t>(kFieldCount));
  for (const FieldSpec& f : kTemplateFields) {
    be_put_u16(out, f.element_id);
    be_put_u16(out, f.length);
  }
}

void append_record(std::vector<std::uint8_t>& out, const FlowRecord& r) {
  be_put_u32(out, r.key.src.value());
  be_put_u32(out, r.key.dst.value());
  be_put_u16(out, r.key.src_port);
  be_put_u16(out, r.key.dst_port);
  out.push_back(static_cast<std::uint8_t>(r.key.proto));
  out.push_back(r.tcp_flags_or);
  be_put_u64(out, r.packets);
  be_put_u64(out, r.bytes);
  be_put_u64(out, r.first_us);
  be_put_u64(out, r.last_us);
  be_put_u32(out, r.sampling_rate);
}

}  // namespace

IpfixEncoder::IpfixEncoder(IpfixEncoderConfig config) : config_(config) {
  if (config_.template_id < 256) {
    throw std::invalid_argument("IpfixEncoder: template ids below 256 are reserved");
  }
  const std::size_t min_size =
      kMessageHeaderSize + kSetHeaderSize + 4 + 4 * kFieldCount + kSetHeaderSize + kRecordSize;
  if (config_.max_message_bytes < min_size || config_.max_message_bytes > 65535) {
    throw std::invalid_argument("IpfixEncoder: max_message_bytes out of range");
  }
}

std::vector<std::vector<std::uint8_t>> IpfixEncoder::encode(std::span<const FlowRecord> records,
                                                            std::uint32_t export_time_s) {
  std::vector<std::vector<std::uint8_t>> messages;
  std::size_t index = 0;
  bool template_sent = false;

  while (index < records.size() || messages.empty()) {
    std::vector<std::uint8_t> msg;
    // Message header placeholder; length patched at the end.
    be_put_u16(msg, kVersion);
    be_put_u16(msg, 0);
    be_put_u32(msg, export_time_s);
    be_put_u32(msg, sequence_);
    be_put_u32(msg, config_.observation_domain);

    if (config_.template_in_every_message || !template_sent) {
      append_template_set(msg, config_.template_id);
      template_sent = true;
    }

    if (index < records.size()) {
      const std::size_t data_set_start = msg.size();
      be_put_u16(msg, config_.template_id);
      be_put_u16(msg, 0);  // set length patched below
      std::size_t count_in_set = 0;
      while (index < records.size() &&
             msg.size() + kRecordSize <= config_.max_message_bytes) {
        append_record(msg, records[index]);
        ++index;
        ++count_in_set;
      }
      const auto set_len = static_cast<std::uint16_t>(msg.size() - data_set_start);
      msg[data_set_start + 2] = static_cast<std::uint8_t>(set_len >> 8);
      msg[data_set_start + 3] = static_cast<std::uint8_t>(set_len & 0xff);
      sequence_ += static_cast<std::uint32_t>(count_in_set);
    }

    const auto msg_len = static_cast<std::uint16_t>(msg.size());
    msg[2] = static_cast<std::uint8_t>(msg_len >> 8);
    msg[3] = static_cast<std::uint8_t>(msg_len & 0xff);
    messages.push_back(std::move(msg));

    if (records.empty()) break;  // template-only heartbeat message
  }
  return messages;
}

util::Result<std::size_t> IpfixDecoder::feed(std::span<const std::uint8_t> message) {
  util::ByteReader header(message);
  const std::uint16_t version = header.be_u16();
  const std::uint16_t declared_length = header.be_u16();
  header.skip(8);  // export time + sequence number
  const std::uint32_t domain = header.be_u32();
  if (!header.ok()) {
    return util::make_error("ipfix.truncated", "message shorter than header");
  }
  if (version != kVersion) {
    return util::make_error("ipfix.version", "unsupported IPFIX version");
  }
  util::ByteReader sets = util::ByteReader(message).take(declared_length);
  if (declared_length < kMessageHeaderSize || !sets.ok()) {
    return util::make_error("ipfix.length", "declared message length invalid");
  }
  sets.skip(kMessageHeaderSize);

  std::size_t decoded_here = 0;
  while (sets.remaining() > 0) {
    const std::uint16_t set_id = sets.be_u16();
    const std::uint16_t set_length = sets.be_u16();
    if (!sets.ok()) {
      return util::make_error("ipfix.set", "set header cut short");
    }
    if (set_length < kSetHeaderSize) {
      return util::make_error("ipfix.set", "set length invalid");
    }
    const auto body = sets.bytes(set_length - kSetHeaderSize);
    if (!sets.ok()) {
      return util::make_error("ipfix.set", "set length invalid");
    }

    if (set_id == kTemplateSetId) {
      auto result = decode_template_set(domain, body);
      if (!result.ok()) return result.error();
    } else if (set_id >= 256) {
      auto result = decode_data_set(domain, set_id, body);
      if (!result.ok()) return result.error();
      decoded_here += result.value();
    } else {
      // Options templates (3) and reserved ids: skip per RFC 7011 §8.
      ++sets_skipped_;
    }
  }
  ++messages_;
  records_ += decoded_here;
  return decoded_here;
}

util::Result<std::size_t> IpfixDecoder::decode_template_set(std::uint32_t domain,
                                                            std::span<const std::uint8_t> body) {
  util::ByteReader set(body);
  std::size_t parsed = 0;
  // A template set may hold several template records; trailing bytes smaller
  // than a minimal record are padding.
  while (set.remaining() >= 4) {
    const std::uint16_t template_id = set.be_u16();
    const std::uint16_t field_count = set.be_u16();
    if (template_id < 256) {
      return util::make_error("ipfix.template", "template id below 256");
    }
    util::ByteReader record = set.take(std::size_t{field_count} * 4);
    if (!record.ok()) {
      return util::make_error("ipfix.template", "template record cut short");
    }
    std::vector<TemplateField> fields;
    fields.reserve(field_count);
    for (std::uint16_t f = 0; f < field_count; ++f) {
      TemplateField field;
      field.element_id = record.be_u16();
      field.length = record.be_u16();
      if (field.element_id & 0x8000u) {
        return util::make_error("ipfix.template", "enterprise elements not supported");
      }
      if (field.length == 0 || field.length == 0xffff) {
        return util::make_error("ipfix.template", "variable-length fields not supported");
      }
      fields.push_back(field);
    }
    templates_[TemplateKey{domain, template_id}] = std::move(fields);
    ++parsed;
  }
  return parsed;
}

util::Result<std::size_t> IpfixDecoder::decode_data_set(std::uint32_t domain,
                                                        std::uint16_t set_id,
                                                        std::span<const std::uint8_t> body) {
  const auto it = templates_.find(TemplateKey{domain, set_id});
  if (it == templates_.end()) {
    return util::make_error("ipfix.data", "data set references unknown template");
  }
  const auto& fields = it->second;
  std::size_t record_size = 0;
  for (const TemplateField& f : fields) record_size += f.length;
  if (record_size == 0) return util::make_error("ipfix.data", "zero-size record");

  util::ByteReader set(body);
  std::size_t decoded = 0;
  while (set.remaining() >= record_size) {
    util::ByteReader record = set.take(record_size);
    FlowRecord r;
    for (const TemplateField& f : fields) {
      if (f.length > 8) return util::make_error("ipfix.data", "field longer than 8 bytes");
      const std::uint64_t value = record.be_uint(f.length);
      switch (f.element_id) {
        case InformationElement::kSourceIPv4Address:
          r.key.src = net::Ipv4Addr(static_cast<std::uint32_t>(value));
          break;
        case InformationElement::kDestinationIPv4Address:
          r.key.dst = net::Ipv4Addr(static_cast<std::uint32_t>(value));
          break;
        case InformationElement::kSourceTransportPort:
          r.key.src_port = static_cast<std::uint16_t>(value);
          break;
        case InformationElement::kDestinationTransportPort:
          r.key.dst_port = static_cast<std::uint16_t>(value);
          break;
        case InformationElement::kProtocolIdentifier:
          r.key.proto = static_cast<net::IpProto>(value);
          break;
        case InformationElement::kTcpControlBits:
          r.tcp_flags_or = static_cast<std::uint8_t>(value);
          break;
        case InformationElement::kPacketDeltaCount:
          r.packets = value;
          break;
        case InformationElement::kOctetDeltaCount:
          r.bytes = value;
          break;
        case InformationElement::kFlowStartMicroseconds:
          r.first_us = value;
          break;
        case InformationElement::kFlowEndMicroseconds:
          r.last_us = value;
          break;
        case InformationElement::kSamplingPacketInterval:
          r.sampling_rate = static_cast<std::uint32_t>(value);
          break;
        default:
          break;  // tolerate extra elements from richer exporters
      }
    }
    decoded_.push_back(r);
    ++decoded;
  }
  // Remaining bytes < record_size are padding; RFC 7011 permits this.
  return decoded;
}

std::vector<FlowRecord> IpfixDecoder::drain() {
  std::vector<FlowRecord> out;
  out.swap(decoded_);
  return out;
}

}  // namespace mtscope::flow
