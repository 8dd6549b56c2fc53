#include "net/ipv4.hpp"

#include <gtest/gtest.h>

#include <string>

namespace mtscope::net {
namespace {

TEST(Ipv4Addr, FromOctetsAndBack) {
  const Ipv4Addr a = Ipv4Addr::from_octets(192, 0, 2, 1);
  EXPECT_EQ(a.value(), 0xc0000201u);
  EXPECT_EQ(a.octet(0), 192);
  EXPECT_EQ(a.octet(1), 0);
  EXPECT_EQ(a.octet(2), 2);
  EXPECT_EQ(a.octet(3), 1);
  EXPECT_EQ(a.to_string(), "192.0.2.1");
}

struct ParseCase {
  const char* text;
  bool valid;
  std::uint32_t value;
};

// Names each case after its input (escaped and quoted), so test names are
// the same in every build.
void PrintTo(const ParseCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.text)) << (c.valid ? " valid" : " invalid");
}

class Ipv4Parse : public ::testing::TestWithParam<ParseCase> {};

TEST_P(Ipv4Parse, Matches) {
  const ParseCase& c = GetParam();
  const auto parsed = Ipv4Addr::parse(c.text);
  EXPECT_EQ(parsed.has_value(), c.valid) << c.text;
  if (c.valid && parsed) {
    EXPECT_EQ(parsed->value(), c.value) << c.text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ipv4Parse,
    ::testing::Values(
        ParseCase{"0.0.0.0", true, 0x00000000u},
        ParseCase{"255.255.255.255", true, 0xffffffffu},
        ParseCase{"10.1.2.3", true, 0x0a010203u},
        ParseCase{"1.2.3", false, 0},         // missing octet
        ParseCase{"1.2.3.4.5", false, 0},     // extra octet
        ParseCase{"256.1.1.1", false, 0},     // octet overflow
        ParseCase{"1.2.3.x", false, 0},       // garbage
        ParseCase{"", false, 0},
        ParseCase{"1..2.3", false, 0},
        ParseCase{" 1.2.3.4", false, 0},      // leading whitespace
        ParseCase{"1.2.3.4 ", false, 0},      // trailing whitespace
        ParseCase{" 1.2.3.4 ", false, 0},     // padded both sides (callers must trim)
        ParseCase{"1.2.3.4\r", false, 0},     // CRLF remnant (callers must trim)
        ParseCase{"1.2.3.4\n", false, 0},     // stray newline
        ParseCase{"\t1.2.3.4", false, 0},     // tab padding
        ParseCase{"+1.2.3.4", false, 0},      // explicit sign
        ParseCase{"1.2.3.+4", false, 0},      // signed inner octet
        ParseCase{"-1.2.3.4", false, 0},      // negative octet
        ParseCase{"1.2.3.4.", false, 0},      // trailing dot
        ParseCase{".1.2.3.4", false, 0},      // leading dot
        ParseCase{"0001.2.3.4", false, 0}));  // over-long octet

TEST(Ipv4Addr, Ordering) {
  EXPECT_LT(Ipv4Addr(1), Ipv4Addr(2));
  EXPECT_EQ(Ipv4Addr(7), Ipv4Addr(7));
}

TEST(Ipv4Addr, RoundTripAllOctetEdges) {
  for (std::uint32_t v : {0u, 1u, 0x7fffffffu, 0x80000000u, 0xffffffffu, 0x0a0b0c0du}) {
    const Ipv4Addr a(v);
    const auto parsed = Ipv4Addr::parse(a.to_string());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->value(), v);
  }
}

TEST(Block24, ContainingAndBounds) {
  const Ipv4Addr addr = Ipv4Addr::from_octets(198, 51, 100, 37);
  const Block24 block = Block24::containing(addr);
  EXPECT_TRUE(block.contains(addr));
  EXPECT_EQ(block.first_address(), Ipv4Addr::from_octets(198, 51, 100, 0));
  EXPECT_EQ(block.last_address(), Ipv4Addr::from_octets(198, 51, 100, 255));
  EXPECT_FALSE(block.contains(Ipv4Addr::from_octets(198, 51, 101, 0)));
  EXPECT_EQ(block.to_string(), "198.51.100.0/24");
}

TEST(Block24, IndexMasked) {
  // Constructor masks to 24 bits.
  EXPECT_EQ(Block24(0xff000001u).index(), 0x000001u);
  EXPECT_EQ(Block24::kUniverseSize, 1u << 24);
}

TEST(AsNumber, Basics) {
  const AsNumber asn(64512);
  EXPECT_EQ(asn.value(), 64512u);
  EXPECT_EQ(asn.to_string(), "AS64512");
  EXPECT_LT(AsNumber(1), AsNumber(2));
}

TEST(HashSpecializations, Usable) {
  EXPECT_EQ(std::hash<Ipv4Addr>{}(Ipv4Addr(5)), std::hash<Ipv4Addr>{}(Ipv4Addr(5)));
  EXPECT_EQ(std::hash<Block24>{}(Block24(9)), std::hash<Block24>{}(Block24(9)));
  EXPECT_EQ(std::hash<AsNumber>{}(AsNumber(3)), std::hash<AsNumber>{}(AsNumber(3)));
}

}  // namespace
}  // namespace mtscope::net
