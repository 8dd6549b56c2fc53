#include "ingest/flow_stream.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/bytes.hpp"

namespace mtscope::ingest {

namespace {

constexpr std::uint8_t kMagic[8] = {'M', 'T', 'F', 'L', 'O', 'W', '\r', '\n'};
constexpr std::size_t kHeaderBytes = 24;  // magic + version + flags + seed + crc
constexpr std::uint16_t kFlagTiny = 0x0001;
// A dataset's record count is untrusted until its payload has arrived, so
// it sizes no buffer: the payload is read, checksummed and decoded this
// many records at a time, and the flow vector is reserved up to a cap
// (address space only, touched as records arrive) and grows past it.
constexpr std::size_t kChunkRecords = 4096;
constexpr std::size_t kReserveRecords = std::size_t{1} << 20;

void encode_record(std::vector<std::uint8_t>& out, const flow::FlowRecord& r) {
  util::le_put_u32(out, r.key.src.value());
  util::le_put_u32(out, r.key.dst.value());
  util::le_put_u16(out, r.key.src_port);
  util::le_put_u16(out, r.key.dst_port);
  out.push_back(static_cast<std::uint8_t>(r.key.proto));
  out.push_back(r.tcp_flags_or);
  util::le_put_u64(out, r.first_us);
  util::le_put_u64(out, r.last_us);
  util::le_put_u64(out, r.packets);
  util::le_put_u64(out, r.bytes);
  util::le_put_u32(out, r.sampling_rate);
}

flow::FlowRecord decode_record(util::ByteReader r) {
  flow::FlowRecord f;
  f.key.src = net::Ipv4Addr(r.le_u32());
  f.key.dst = net::Ipv4Addr(r.le_u32());
  f.key.src_port = r.le_u16();
  f.key.dst_port = r.le_u16();
  f.key.proto = static_cast<net::IpProto>(r.u8());
  f.tcp_flags_or = r.u8();
  f.first_us = r.le_u64();
  f.last_us = r.le_u64();
  f.packets = r.le_u64();
  f.bytes = r.le_u64();
  f.sampling_rate = r.le_u32();
  return f;
}

}  // namespace

// --- writer ---------------------------------------------------------------

void FlowStreamWriter::put(std::span<const std::uint8_t> bytes) {
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

bool FlowStreamWriter::ok() const noexcept { return out_.good(); }

void FlowStreamWriter::write_header(const StreamHeader& header) {
  std::vector<std::uint8_t> bytes(std::begin(kMagic), std::end(kMagic));
  util::le_put_u16(bytes, kFlowStreamVersion);
  util::le_put_u16(bytes, header.tiny ? kFlagTiny : 0);
  util::le_put_u64(bytes, header.seed);
  util::le_put_u32(bytes, util::crc32(bytes));
  put(bytes);
  out_.flush();
}

void FlowStreamWriter::write_dataset(int day, std::uint32_t sampling_rate,
                                     std::string_view vantage,
                                     std::span<const flow::FlowRecord> flows) {
  std::vector<std::uint8_t> payload;
  payload.reserve(flows.size() * kFlowRecordBytes);
  for (const auto& r : flows) encode_record(payload, r);

  std::vector<std::uint8_t> frame;
  frame.reserve(16 + vantage.size() + payload.size());
  frame.push_back(static_cast<std::uint8_t>(StreamEvent::Kind::kDataset));
  util::le_put_u32(frame, static_cast<std::uint32_t>(day));
  util::le_put_u32(frame, sampling_rate);
  frame.push_back(static_cast<std::uint8_t>(vantage.size() & 0xff));
  for (const char c : vantage.substr(0, 255)) {
    frame.push_back(static_cast<std::uint8_t>(c));
  }
  util::le_put_u32(frame, static_cast<std::uint32_t>(flows.size()));
  util::le_put_u32(frame, util::crc32(payload));
  frame.insert(frame.end(), payload.begin(), payload.end());
  put(frame);
  out_.flush();
}

void FlowStreamWriter::write_day_end(int day) {
  std::vector<std::uint8_t> frame;
  frame.push_back(static_cast<std::uint8_t>(StreamEvent::Kind::kDayEnd));
  util::le_put_u32(frame, static_cast<std::uint32_t>(day));
  put(frame);
  out_.flush();
}

void FlowStreamWriter::write_stream_end() {
  const std::uint8_t kind = static_cast<std::uint8_t>(StreamEvent::Kind::kStreamEnd);
  put({&kind, 1});
  out_.flush();
}

// --- reader ---------------------------------------------------------------

int FlowStreamReader::read_exact(std::span<std::uint8_t> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    in_.read(reinterpret_cast<char*>(out.data() + got),
             static_cast<std::streamsize>(out.size() - got));
    const auto n = in_.gcount();
    if (n <= 0) return got == 0 ? -1 : 1;
    got += static_cast<std::size_t>(n);
  }
  return 0;
}

util::Result<StreamHeader> FlowStreamReader::read_header() {
  std::uint8_t raw[kHeaderBytes];
  if (read_exact(raw) != 0) {
    return util::make_error("stream.truncated", "flow stream shorter than its header");
  }
  util::ByteReader r(raw);
  const auto magic = r.bytes(sizeof(kMagic));
  if (!std::equal(magic.begin(), magic.end(), std::begin(kMagic))) {
    return util::make_error("stream.bad_magic", "not a flow stream (bad magic)");
  }
  const std::uint16_t version = r.le_u16();
  if (version != kFlowStreamVersion) {
    return util::make_error("stream.unsupported_version",
                            "flow stream version " + std::to_string(version) +
                                " (reader speaks " + std::to_string(kFlowStreamVersion) + ")");
  }
  StreamHeader header;
  header.tiny = (r.le_u16() & kFlagTiny) != 0;
  header.seed = r.le_u64();
  if (r.le_u32() != util::crc32(std::span(raw).first(kHeaderBytes - 4))) {
    return util::make_error("stream.bad_crc", "flow stream header checksum mismatch");
  }
  return header;
}

util::Result<StreamEvent> FlowStreamReader::next() {
  std::uint8_t kind_byte = 0;
  const int status = read_exact({&kind_byte, 1});
  StreamEvent event;
  if (status == -1) {
    // EOF on a frame boundary: the producer stopped cleanly enough.
    event.kind = StreamEvent::Kind::kStreamEnd;
    return event;
  }

  switch (static_cast<StreamEvent::Kind>(kind_byte)) {
    case StreamEvent::Kind::kStreamEnd:
      event.kind = StreamEvent::Kind::kStreamEnd;
      return event;

    case StreamEvent::Kind::kDayEnd: {
      std::uint8_t raw[4];
      if (read_exact(raw) != 0) {
        return util::make_error("stream.truncated", "flow stream ends inside a day-end frame");
      }
      event.kind = StreamEvent::Kind::kDayEnd;
      event.day = static_cast<int>(util::ByteReader(raw).le_u32());
      return event;
    }

    case StreamEvent::Kind::kDataset: {
      std::uint8_t raw_fixed[9];  // day + sampling_rate + vantage_len
      if (read_exact(raw_fixed) != 0) {
        return util::make_error("stream.truncated", "flow stream ends inside a dataset frame");
      }
      util::ByteReader fixed(raw_fixed);
      event.kind = StreamEvent::Kind::kDataset;
      event.day = static_cast<int>(fixed.le_u32());
      event.sampling_rate = fixed.le_u32();
      const std::size_t vantage_len = fixed.u8();

      std::vector<std::uint8_t> raw_var(vantage_len + 8);  // vantage + count + crc
      if (read_exact(raw_var) != 0) {
        return util::make_error("stream.truncated", "flow stream ends inside a dataset frame");
      }
      util::ByteReader var(raw_var);
      const auto vantage = var.bytes(vantage_len);
      event.vantage.assign(vantage.begin(), vantage.end());
      const std::uint32_t count = var.le_u32();
      const std::uint32_t crc = var.le_u32();

      std::vector<std::uint8_t> chunk;
      std::uint32_t payload_crc = 0;
      event.flows.reserve(std::min<std::size_t>(count, kReserveRecords));
      for (std::size_t left = count; left > 0;) {
        const std::size_t n = std::min(left, kChunkRecords);
        chunk.resize(n * kFlowRecordBytes);
        if (read_exact(chunk) != 0) {
          return util::make_error("stream.truncated",
                                  "flow stream ends inside a dataset payload (" +
                                      std::to_string(count) + " records expected)");
        }
        payload_crc = util::crc32(chunk, payload_crc);
        util::ByteReader records(chunk);
        for (std::size_t i = 0; i < n; ++i) {
          event.flows.push_back(decode_record(records.take(kFlowRecordBytes)));
        }
        left -= n;
      }
      if (payload_crc != crc) {
        return util::make_error("stream.bad_crc", "dataset payload checksum mismatch (day " +
                                                      std::to_string(event.day) + ")");
      }
      return event;
    }
  }
  return util::make_error("stream.bad_frame",
                          "unknown frame kind " + std::to_string(int{kind_byte}));
}

}  // namespace mtscope::ingest
