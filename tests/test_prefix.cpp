#include "net/prefix.hpp"

#include <gtest/gtest.h>

#include <string>

namespace mtscope::net {
namespace {

TEST(Prefix, ConstructValid) {
  const Prefix p(Ipv4Addr::from_octets(10, 0, 0, 0), 8);
  EXPECT_EQ(p.length(), 8);
  EXPECT_EQ(p.to_string(), "10.0.0.0/8");
  EXPECT_EQ(p.address_count(), 1ull << 24);
  EXPECT_EQ(p.block24_count(), 1ull << 16);
}

TEST(Prefix, RejectsHostBits) {
  EXPECT_THROW(Prefix(Ipv4Addr::from_octets(10, 0, 0, 1), 8), std::invalid_argument);
}

TEST(Prefix, RejectsBadLength) {
  EXPECT_THROW(Prefix(Ipv4Addr(0), 33), std::invalid_argument);
  EXPECT_THROW((void)Prefix::canonical(Ipv4Addr(0), -1), std::invalid_argument);
}

TEST(Prefix, CanonicalMasks) {
  const Prefix p = Prefix::canonical(Ipv4Addr::from_octets(10, 1, 2, 3), 16);
  EXPECT_EQ(p.to_string(), "10.1.0.0/16");
}

TEST(Prefix, DefaultIsWholeSpace) {
  const Prefix p;
  EXPECT_EQ(p.length(), 0);
  EXPECT_EQ(p.address_count(), 1ull << 32);
  EXPECT_TRUE(p.contains(Ipv4Addr(0xffffffffu)));
}

struct PrefixParseCase {
  const char* text;
  bool valid;
};

// Names each case after its input, so test names are the same in every
// build.
void PrintTo(const PrefixParseCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.text)) << (c.valid ? " valid" : " invalid");
}

class PrefixParse : public ::testing::TestWithParam<PrefixParseCase> {};

TEST_P(PrefixParse, Matches) {
  EXPECT_EQ(Prefix::parse(GetParam().text).has_value(), GetParam().valid) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(Cases, PrefixParse,
                         ::testing::Values(PrefixParseCase{"10.0.0.0/8", true},
                                           PrefixParseCase{"0.0.0.0/0", true},
                                           PrefixParseCase{"192.0.2.1/32", true},
                                           PrefixParseCase{"10.0.0.1/8", false},  // host bits
                                           PrefixParseCase{"10.0.0.0/33", false},
                                           PrefixParseCase{"10.0.0.0", false},
                                           PrefixParseCase{"10.0.0.0/-1", false},
                                           PrefixParseCase{"abc/8", false},
                                           PrefixParseCase{"10.0.0.0/8x", false}));

class PrefixRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PrefixRoundTrip, ParseToStringIdentity) {
  const int len = GetParam();
  const Prefix p = Prefix::canonical(Ipv4Addr::from_octets(172, 16 + len, 7, 200), len);
  const auto reparsed = Prefix::parse(p.to_string());
  ASSERT_TRUE(reparsed);
  EXPECT_EQ(*reparsed, p);
}

INSTANTIATE_TEST_SUITE_P(AllLengths, PrefixRoundTrip, ::testing::Range(0, 33));

TEST(Prefix, Containment) {
  const Prefix p8 = *Prefix::parse("10.0.0.0/8");
  const Prefix p16 = *Prefix::parse("10.5.0.0/16");
  const Prefix other = *Prefix::parse("11.0.0.0/8");
  EXPECT_TRUE(p8.contains(p16));
  EXPECT_FALSE(p16.contains(p8));
  EXPECT_TRUE(p8.contains(p8));
  EXPECT_FALSE(p8.contains(other));
  EXPECT_TRUE(p8.overlaps(p16));
  EXPECT_TRUE(p16.overlaps(p8));
  EXPECT_FALSE(p8.overlaps(other));
}

TEST(Prefix, ContainsBlock24) {
  const Prefix p = *Prefix::parse("10.0.0.0/8");
  EXPECT_TRUE(p.contains(Block24::containing(Ipv4Addr::from_octets(10, 200, 3, 4))));
  EXPECT_FALSE(p.contains(Block24::containing(Ipv4Addr::from_octets(11, 0, 0, 0))));
  // A /25 cannot contain any /24.
  const Prefix p25 = *Prefix::parse("10.0.0.0/25");
  EXPECT_FALSE(p25.contains(Block24::containing(Ipv4Addr::from_octets(10, 0, 0, 0))));
}

TEST(Prefix, ParentChildren) {
  const Prefix p = *Prefix::parse("10.0.0.0/9");
  const auto parent = p.parent();
  ASSERT_TRUE(parent);
  EXPECT_EQ(parent->to_string(), "10.0.0.0/8");
  EXPECT_FALSE(Prefix().parent());

  const auto [low, high] = parent->children();
  EXPECT_EQ(low, p);
  EXPECT_EQ(high.to_string(), "10.128.0.0/9");
  EXPECT_THROW((void)(*Prefix::parse("1.2.3.4/32")).children(), std::logic_error);
}

TEST(Prefix, ChildrenPartitionParent) {
  const Prefix p = *Prefix::parse("192.168.0.0/16");
  const auto [low, high] = p.children();
  EXPECT_EQ(low.address_count() + high.address_count(), p.address_count());
  EXPECT_TRUE(p.contains(low));
  EXPECT_TRUE(p.contains(high));
  EXPECT_FALSE(low.overlaps(high));
}

TEST(Prefix, Blocks24Enumeration) {
  const Prefix p = *Prefix::parse("198.51.100.0/23");
  const auto blocks = p.blocks24();
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].to_string(), "198.51.100.0/24");
  EXPECT_EQ(blocks[1].to_string(), "198.51.101.0/24");
  EXPECT_THROW((void)(*Prefix::parse("1.2.3.0/25")).blocks24(), std::logic_error);
}

TEST(Prefix, FromBlock24) {
  const Block24 b = Block24::containing(Ipv4Addr::from_octets(203, 0, 113, 9));
  EXPECT_EQ(Prefix::from_block24(b).to_string(), "203.0.113.0/24");
}

TEST(Prefix, BitAccess) {
  const Prefix p = *Prefix::parse("128.0.0.0/1");
  EXPECT_TRUE(p.bit(0));
  const Prefix q = *Prefix::parse("64.0.0.0/2");
  EXPECT_FALSE(q.bit(0));
  EXPECT_TRUE(q.bit(1));
}

TEST(Prefix, MaskFor) {
  EXPECT_EQ(Prefix::mask_for(0), 0u);
  EXPECT_EQ(Prefix::mask_for(8), 0xff000000u);
  EXPECT_EQ(Prefix::mask_for(32), 0xffffffffu);
}

}  // namespace
}  // namespace mtscope::net
