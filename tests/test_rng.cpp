#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/rng.h"

namespace enviromic::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng r(10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(7, 7), 7);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng r(12);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, ExponentialIsPositive) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(r.exponential(1.0), 0.0);
}

TEST(Rng, ChanceExtremes) {
  Rng r(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng r(16);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkByTagIsDeterministic) {
  Rng a(42), b(42);
  Rng fa = a.fork("detector");
  Rng fb = b.fork("detector");
  for (int i = 0; i < 20; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Rng, ForksWithDifferentTagsAreIndependent) {
  Rng root(42);
  Rng a = root.fork("alpha");
  Rng b = root.fork("beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkDoesNotPerturbParentStream) {
  Rng a(42), b(42);
  (void)a.fork("x");
  (void)a.fork(std::uint64_t{99});
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkByIdDistinct) {
  Rng root(42);
  Rng f1 = root.fork(std::uint64_t{1});
  Rng f2 = root.fork(std::uint64_t{2});
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanNearHalf) {
  Rng r(GetParam());
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST_P(RngSeedSweep, UniformIntUnbiasedOverSmallRange) {
  Rng r(GetParam() ^ 0xABCDEF);
  int counts[5] = {};
  const int n = 10000;
  for (int i = 0; i < n; ++i) ++counts[r.uniform_int(0, 4)];
  for (int c : counts) EXPECT_NEAR(c, n / 5, n / 25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 2, 3, 1000, 99999, 123456789));

}  // namespace
}  // namespace enviromic::sim
