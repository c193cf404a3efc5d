// Property tests for the §3.1 machinery: Lemmas 3.1–3.10 exercised on real
// decompositions of unit-Monge products.
#include "oracles/delta.h"

#include <gtest/gtest.h>

#include <string>

#include "oracles/distribution.h"
#include "testing.h"
#include "util/rng.h"

namespace monge {
namespace {

using testing::make_colored_split;

struct SplitCase {
  std::int64_t n;
  std::int32_t h;
  std::uint64_t seed;
};

class DeltaSplit : public ::testing::TestWithParam<SplitCase> {
 protected:
  void SetUp() override {
    Rng rng(GetParam().seed);
    a_ = Perm::random(GetParam().n, rng);
    b_ = Perm::random(GetParam().n, rng);
    set_.emplace(make_colored_split(a_, b_, GetParam().h));
  }

  Perm a_, b_;
  std::optional<ColoredPointSet> set_;
};

TEST_P(DeltaSplit, Lemma32MinOfFEqualsProductDistribution) {
  // PΣ_C(i,j) = min_q F_q(i,j).
  const Perm expected = multiply_naive(a_, b_);
  const DistMatrix dist = DistMatrix::from(expected);
  const std::int64_t n = GetParam().n;
  for (std::int64_t i = 0; i <= n; ++i) {
    for (std::int64_t j = 0; j <= n; ++j) {
      std::int64_t best = set_->F(0, i, j);
      for (std::int32_t q = 1; q < set_->num_colors(); ++q) {
        best = std::min(best, set_->F(q, i, j));
      }
      ASSERT_EQ(best, dist.at(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST_P(DeltaSplit, Lemma33ColumnStepsAreZeroOrOne) {
  const std::int64_t n = GetParam().n;
  const std::int32_t h = set_->num_colors();
  for (std::int32_t q = 0; q < h; ++q) {
    for (std::int32_t r = q + 1; r < h; ++r) {
      for (std::int64_t i = 0; i <= n; i += std::max<std::int64_t>(1, n / 5)) {
        for (std::int64_t j = 0; j < n; ++j) {
          const std::int64_t step =
              set_->delta(q, r, i, j + 1) - set_->delta(q, r, i, j);
          ASSERT_TRUE(step == 0 || step == 1)
              << "q=" << q << " r=" << r << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST_P(DeltaSplit, Lemma34RowStepsAreZeroOrOne) {
  const std::int64_t n = GetParam().n;
  const std::int32_t h = set_->num_colors();
  for (std::int32_t q = 0; q < h; ++q) {
    for (std::int32_t r = q + 1; r < h; ++r) {
      for (std::int64_t j = 0; j <= n; j += std::max<std::int64_t>(1, n / 5)) {
        for (std::int64_t i = 0; i < n; ++i) {
          const std::int64_t step =
              set_->delta(q, r, i + 1, j) - set_->delta(q, r, i, j);
          ASSERT_TRUE(step == 0 || step == 1)
              << "q=" << q << " r=" << r << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST_P(DeltaSplit, Lemmas3536OptIsMonotone) {
  const std::int64_t n = GetParam().n;
  for (std::int64_t i = 0; i <= n; ++i) {
    std::int32_t prev = set_->opt(i, 0);
    for (std::int64_t j = 1; j <= n; ++j) {
      const std::int32_t cur = set_->opt(i, j);
      ASSERT_LE(prev, cur);
      prev = cur;
    }
  }
  for (std::int64_t j = 0; j <= n; ++j) {
    std::int32_t prev = set_->opt(0, j);
    for (std::int64_t i = 1; i <= n; ++i) {
      const std::int32_t cur = set_->opt(i, j);
      ASSERT_LE(prev, cur);
      prev = cur;
    }
  }
}

TEST_P(DeltaSplit, Lemmas37To310ReconstructionMatchesNaive) {
  EXPECT_EQ(combine_opt_table(*set_), multiply_naive(a_, b_));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeltaSplit,
    ::testing::Values(SplitCase{4, 2, 1}, SplitCase{6, 2, 2},
                      SplitCase{6, 3, 3}, SplitCase{8, 4, 4},
                      SplitCase{12, 3, 5}, SplitCase{16, 4, 6},
                      SplitCase{16, 8, 7}, SplitCase{24, 5, 8},
                      SplitCase{32, 4, 9}, SplitCase{32, 8, 10},
                      SplitCase{33, 7, 11}, SplitCase{40, 6, 12},
                      SplitCase{48, 16, 13}, SplitCase{64, 8, 14}),
    [](const auto& tpi) {
      // Appends, not an operator+ chain: the chain trips a gcc-12
      // -Wrestrict false positive (PR105651) once inlined at -O3.
      std::string name;
      name += "n";
      name += std::to_string(tpi.param.n);
      name += "_h";
      name += std::to_string(tpi.param.h);
      name += "_s";
      name += std::to_string(tpi.param.seed);
      return name;
    });

TEST(ColoredPointSet, FullUnionDetection) {
  // Two points sharing a row are not a permutation union.
  ColoredPointSet bad(2, 2, {{0, 0, 0}, {0, 1, 1}});
  EXPECT_FALSE(bad.is_full_union());
  ColoredPointSet good(2, 2, {{0, 0, 0}, {1, 1, 1}});
  EXPECT_TRUE(good.is_full_union());
  ColoredPointSet missing(2, 2, {{0, 0, 0}});
  EXPECT_FALSE(missing.is_full_union());
}

TEST(ColoredPointSet, CountsAgainstHandComputedValues) {
  // Points: (0,1,c0), (1,0,c0), (2,2,c1).
  ColoredPointSet s(3, 2, {{0, 1, 0}, {1, 0, 0}, {2, 2, 1}});
  EXPECT_EQ(s.A(0, 0, 2), 2);  // both color-0 points have col < 2, row >= 0
  EXPECT_EQ(s.A(0, 1, 2), 1);  // only (1,0)
  EXPECT_EQ(s.A(1, 0, 3), 1);
  EXPECT_EQ(s.A(1, 0, 2), 0);
  EXPECT_EQ(s.C(0, 1), 1);
  EXPECT_EQ(s.R(0, 1), 1);
  EXPECT_EQ(s.R(1, 3), 0);
}

TEST(ColoredPointSet, ColorSliceExtractsSubPermutation) {
  ColoredPointSet s(3, 2, {{0, 1, 0}, {1, 0, 0}, {2, 2, 1}});
  const Perm p0 = s.color_slice(0);
  EXPECT_EQ(p0.point_count(), 2);
  EXPECT_EQ(p0.col_of(0), 1);
  EXPECT_EQ(p0.col_of(1), 0);
  const Perm p1 = s.color_slice(1);
  EXPECT_EQ(p1.point_count(), 1);
  EXPECT_EQ(p1.col_of(2), 2);
}

TEST(ColoredPointSet, RejectsOutOfRangePoints) {
  EXPECT_THROW(ColoredPointSet(2, 1, {{2, 0, 0}}), std::logic_error);
  EXPECT_THROW(ColoredPointSet(2, 1, {{0, 0, 1}}), std::logic_error);
}

}  // namespace
}  // namespace monge
