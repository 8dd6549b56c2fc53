#include "routing/special_purpose.hpp"

#include <gtest/gtest.h>

#include <string>

namespace mtscope::routing {
namespace {

using net::Block24;
using net::Ipv4Addr;

struct ReservedCase {
  const char* address;
  bool reserved;
};

// Names each case after its input, so test names are the same in every
// build.
void PrintTo(const ReservedCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.address))
      << (c.reserved ? " reserved" : " not reserved");
}

class StandardRegistry : public ::testing::TestWithParam<ReservedCase> {};

TEST_P(StandardRegistry, Classification) {
  const auto registry = SpecialPurposeRegistry::standard();
  const auto addr = Ipv4Addr::parse(GetParam().address);
  ASSERT_TRUE(addr);
  EXPECT_EQ(registry.is_reserved(*addr), GetParam().reserved) << GetParam().address;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, StandardRegistry,
    ::testing::Values(ReservedCase{"10.1.2.3", true},          // RFC1918
                      ReservedCase{"172.16.0.1", true},        // RFC1918
                      ReservedCase{"172.32.0.1", false},       // just outside /12
                      ReservedCase{"192.168.255.255", true},   // RFC1918
                      ReservedCase{"127.0.0.1", true},         // loopback
                      ReservedCase{"169.254.1.1", true},       // link local
                      ReservedCase{"100.64.0.1", true},        // CGN
                      ReservedCase{"100.128.0.1", false},      // outside CGN /10
                      ReservedCase{"192.0.2.7", true},         // TEST-NET-1
                      ReservedCase{"198.18.0.1", true},        // benchmarking
                      ReservedCase{"198.20.0.1", false},
                      ReservedCase{"224.0.0.1", true},         // multicast
                      ReservedCase{"240.0.0.1", true},         // reserved
                      ReservedCase{"255.255.255.255", true},   // broadcast
                      ReservedCase{"0.1.2.3", true},           // this network
                      ReservedCase{"192.88.99.1", false},      // 6to4 anycast: global
                      ReservedCase{"8.8.8.8", false},
                      ReservedCase{"203.0.114.1", false}));    // adjacent to TEST-NET-3

TEST(SpecialPurposeRegistry, BlockGranularity) {
  const auto registry = SpecialPurposeRegistry::standard();
  EXPECT_TRUE(registry.is_reserved(Block24::containing(Ipv4Addr::from_octets(10, 0, 0, 0))));
  EXPECT_FALSE(registry.is_reserved(Block24::containing(Ipv4Addr::from_octets(9, 255, 255, 0))));
}

TEST(SpecialPurposeRegistry, LookupReturnsEntryMetadata) {
  const auto registry = SpecialPurposeRegistry::standard();
  const auto* entry = registry.lookup(Ipv4Addr::from_octets(192, 0, 2, 1));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->rfc, "RFC5737");
  EXPECT_EQ(registry.lookup(Ipv4Addr::from_octets(8, 8, 8, 8)), nullptr);
}

TEST(SpecialPurposeRegistry, MostSpecificEntryWins) {
  SpecialPurposeRegistry registry;
  registry.add({*net::Prefix::parse("192.0.0.0/8"), "outer", "X", true});
  registry.add({*net::Prefix::parse("192.0.2.0/24"), "inner", "Y", false});
  const auto* entry = registry.lookup(Ipv4Addr::from_octets(192, 0, 2, 9));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, "inner");
  EXPECT_TRUE(registry.is_reserved(Ipv4Addr::from_octets(192, 0, 2, 9)));
  EXPECT_FALSE(registry.is_reserved(Ipv4Addr::from_octets(192, 9, 9, 9)));
}

TEST(SpecialPurposeRegistry, StandardEntryCount) {
  EXPECT_EQ(SpecialPurposeRegistry::standard().size(), 16u);
}

}  // namespace
}  // namespace mtscope::routing
