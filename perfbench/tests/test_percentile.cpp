#include <gtest/gtest.h>

#include <vector>

#include "percentile.hpp"

using perfbench::min_samples_for;
using perfbench::percentile;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

TEST(Percentile, NearestRankWithSampleCount) {
  const auto p = percentile(one_to(100), 90);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->value, 90.0);
  EXPECT_EQ(p->samples, 100u);
  EXPECT_EQ(p->beyond, 10u);

  const auto median = percentile(one_to(21), 50);
  ASSERT_TRUE(median.has_value());
  EXPECT_EQ(median->value, 11.0);
  EXPECT_EQ(median->beyond, 10u);
}

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(percentile(one_to(99), 90).has_value());
  EXPECT_TRUE(percentile(one_to(100), 90).has_value());
  EXPECT_FALSE(percentile(one_to(999), 99).has_value());
  const auto p99 = percentile(one_to(1000), 99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->beyond, 10u);
  EXPECT_FALSE(percentile(one_to(19), 50).has_value());
}

TEST(Percentile, MinimumSampleCounts) {
  EXPECT_EQ(min_samples_for(50), 20u);
  EXPECT_EQ(min_samples_for(90), 100u);
  EXPECT_EQ(min_samples_for(99), 1000u);
}

TEST(Percentile, RejectsEmptyInputAndBadRanks) {
  EXPECT_FALSE(percentile({}, 50).has_value());
  EXPECT_FALSE(percentile(one_to(100), 0).has_value());
  EXPECT_FALSE(percentile(one_to(100), 100).has_value());
}
