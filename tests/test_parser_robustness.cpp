// Robustness property tests: every wire decoder must survive arbitrary
// bytes — random garbage, truncations, and bit-flipped valid messages —
// without crashing, hanging or reading out of bounds.  Each decode either
// succeeds or returns a structured error.
#include <gtest/gtest.h>

#include <sstream>

#include "flow/ipfix.hpp"
#include "net/headers.hpp"
#include "net/pcap.hpp"
#include "util/rng.hpp"

namespace mtscope {
namespace {

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.uniform(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, PacketParserNeverCrashes) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const auto bytes = random_bytes(rng, 128);
    const auto result = net::parse_packet(bytes);
    if (result.ok()) {
      // Whatever parsed must at least be internally consistent.
      EXPECT_GE(result.value().ip.total_length, net::Ipv4Header::kMinSize);
    }
  }
}

TEST_P(ParserFuzz, IpfixDecoderNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x1111);
  flow::IpfixDecoder decoder;
  for (int i = 0; i < 3000; ++i) {
    const auto bytes = random_bytes(rng, 256);
    (void)decoder.feed(bytes);  // ok() or error(), never UB
  }
  (void)decoder.drain();
}

TEST_P(ParserFuzz, PcapReaderNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x3333);
  for (int i = 0; i < 300; ++i) {
    const auto bytes = random_bytes(rng, 512);
    std::stringstream stream(std::string(bytes.begin(), bytes.end()));
    (void)net::read_pcap(stream);
  }
}

TEST_P(ParserFuzz, TruncatedValidIpfixAlwaysErrorsCleanly) {
  util::Rng rng(GetParam() ^ 0x4444);
  // Build a valid message, then feed every prefix of it.
  std::vector<flow::FlowRecord> records(5);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].key.src = net::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
    records[i].key.dst = net::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
    records[i].packets = 1;
    records[i].bytes = 40;
  }
  flow::IpfixEncoder encoder;
  const auto message = encoder.encode(records, 0).at(0);
  for (std::size_t cut = 0; cut < message.size(); ++cut) {
    flow::IpfixDecoder decoder;
    const auto prefix = std::span<const std::uint8_t>(message.data(), cut);
    const auto fed = decoder.feed(prefix);
    EXPECT_FALSE(fed.ok()) << "prefix of " << cut << " bytes decoded successfully";
  }
}

TEST_P(ParserFuzz, BitFlippedIpfixNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x5555);
  std::vector<flow::FlowRecord> records(10);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].key.dst = net::Ipv4Addr(static_cast<std::uint32_t>(i));
    records[i].packets = 1;
    records[i].bytes = 40;
  }
  flow::IpfixEncoder encoder;
  const auto original = encoder.encode(records, 0).at(0);
  for (int i = 0; i < 2000; ++i) {
    auto mutated = original;
    const std::size_t pos = rng.uniform(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
    flow::IpfixDecoder decoder;
    (void)decoder.feed(mutated);
    (void)decoder.drain();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace mtscope
