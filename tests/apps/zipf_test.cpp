// apps::Zipf's guided search against a plain std::lower_bound over the
// same CDF: the rank must match for every u, so kv key streams (and every
// kv digest) do not move.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "apps/kv.hpp"
#include "sim/rng.hpp"

namespace e2e::apps {
namespace {

// The table Zipf builds, rebuilt here the same way.
std::vector<double> zipf_cdf(std::uint64_t n, double theta) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf[i] = acc;
  }
  for (double& c : cdf) c /= acc;
  cdf.back() = 1.0;
  return cdf;
}

std::uint64_t full_search(const std::vector<double>& cdf, double u) {
  const auto idx = static_cast<std::uint64_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return std::min<std::uint64_t>(idx, cdf.size() - 1);
}

struct Shape {
  std::uint64_t n;
  double theta;
};

TEST(Zipf, GuidedRankMatchesFullBinarySearch) {
  const Shape shapes[] = {{16384, 0.99}, {1024, 0.99}, {1000, 0.5},
                          {16384, 0.0},  {1, 0.99},    {3, 2.0},
                          {5000, 1.5}};
  for (const Shape& sh : shapes) {
    const Zipf z(sh.n, sh.theta);
    const std::vector<double> cdf = zipf_cdf(sh.n, sh.theta);
    // The edges: 0, just below 1, every CDF value exactly, and the
    // doubles on either side of each.
    std::vector<double> us = {0.0, std::nextafter(1.0, 0.0)};
    for (double c : cdf) {
      for (double u : {std::nextafter(c, 0.0), c, std::nextafter(c, 1.0)})
        if (u >= 0.0 && u < 1.0) us.push_back(u);
    }
    for (double u : us)
      ASSERT_EQ(z.rank(u), full_search(cdf, u))
          << "n " << sh.n << " theta " << sh.theta << " u " << u;
  }
}

TEST(Zipf, GuidedSamplesMatchFullBinarySearchOverAMillionDraws) {
  const Zipf z(16384, 0.99);  // the kv scenario's default table
  const std::vector<double> cdf = zipf_cdf(16384, 0.99);
  sim::Rng a(7), b(7);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t got = z.sample(a);
    ASSERT_EQ(got, full_search(cdf, b.uniform(0.0, 1.0))) << "draw " << i;
  }
}

TEST(Zipf, RejectsEmptyAndNegativeTheta) {
  EXPECT_THROW(Zipf(0, 0.99), std::invalid_argument);
  EXPECT_THROW(Zipf(16, -0.5), std::invalid_argument);
}

}  // namespace
}  // namespace e2e::apps
