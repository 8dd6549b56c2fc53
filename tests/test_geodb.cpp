#include "geo/geodb.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace mtscope::geo {
namespace {

using net::Ipv4Addr;
using net::Prefix;

TEST(GeoDb, CountryLongestMatch) {
  GeoDb db;
  db.add(*Prefix::parse("10.0.0.0/8"), "US");
  db.add(*Prefix::parse("10.99.0.0/16"), "DE");
  EXPECT_EQ(db.country_of(Ipv4Addr::from_octets(10, 99, 1, 1)).value(), "DE");
  EXPECT_EQ(db.country_of(Ipv4Addr::from_octets(10, 1, 1, 1)).value(), "US");
  EXPECT_FALSE(db.country_of(Ipv4Addr::from_octets(11, 0, 0, 0)));
}

TEST(GeoDb, ContinentLookups) {
  GeoDb db;
  db.add(*Prefix::parse("10.0.0.0/8"), "CN");
  EXPECT_EQ(db.continent_of(Ipv4Addr::from_octets(10, 0, 0, 1)), Continent::kAsia);
  EXPECT_EQ(db.continent_of(Ipv4Addr::from_octets(11, 0, 0, 1)), Continent::kInternational);
}

TEST(GeoDb, SaveLoadRoundTrip) {
  GeoDb db;
  db.add(*Prefix::parse("10.0.0.0/8"), "BR");
  db.add(*Prefix::parse("192.0.2.0/24"), "JP");
  std::stringstream buffer;
  db.save(buffer);
  auto loaded = GeoDb::load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value().country_of(Ipv4Addr::from_octets(192, 0, 2, 200)).value(), "JP");
}

TEST(GeoDb, LoadRejectsMalformed) {
  std::stringstream bad("10.0.0.0/8\n");
  EXPECT_FALSE(GeoDb::load(bad).ok());
  std::stringstream bad_prefix("10.0.0.0/99,US\n");
  EXPECT_FALSE(GeoDb::load(bad_prefix).ok());
}

struct ContinentCase {
  const char* country;
  Continent continent;
};

// Names each case after its input, so test names are the same in every
// build.
void PrintTo(const ContinentCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.country)) << " in "
      << continent_code(c.continent);
}

class CountryContinent : public ::testing::TestWithParam<ContinentCase> {};

TEST_P(CountryContinent, Maps) {
  EXPECT_EQ(continent_of_country(GetParam().country), GetParam().continent);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CountryContinent,
    ::testing::Values(ContinentCase{"US", Continent::kNorthAmerica},
                      ContinentCase{"CA", Continent::kNorthAmerica},
                      ContinentCase{"BR", Continent::kSouthAmerica},
                      ContinentCase{"DE", Continent::kEurope},
                      ContinentCase{"RU", Continent::kEurope},
                      ContinentCase{"CN", Continent::kAsia},
                      ContinentCase{"JP", Continent::kAsia},
                      ContinentCase{"ZA", Continent::kAfrica},
                      ContinentCase{"AU", Continent::kOceania},
                      ContinentCase{"KP", Continent::kAsia},
                      ContinentCase{"XX", Continent::kInternational},
                      ContinentCase{"", Continent::kInternational}));

TEST(Continent, CodesAndNames) {
  EXPECT_EQ(continent_code(Continent::kNorthAmerica), "NA");
  EXPECT_EQ(continent_code(Continent::kInternational), "INT");
  EXPECT_EQ(continent_name(Continent::kOceania), "Oceania");
  EXPECT_EQ(kAllContinents.size(), 7u);
}

}  // namespace
}  // namespace mtscope::geo
