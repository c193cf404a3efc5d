#include "oracles/distribution.h"

#include <gtest/gtest.h>

#include "monge/permutation.h"
#include "util/rng.h"

namespace monge {
namespace {

TEST(DistMatrix, IdentityDistribution) {
  // For the identity permutation, PΣ(i,j) = #{r : r >= i, r < j}
  //                                       = max(0, min(n,j) - i).
  const std::int64_t n = 6;
  const DistMatrix m = DistMatrix::from(Perm::identity(n));
  for (std::int64_t i = 0; i <= n; ++i) {
    for (std::int64_t j = 0; j <= n; ++j) {
      EXPECT_EQ(m.at(i, j), std::max<std::int64_t>(0, j - i))
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(DistMatrix, MatchesDirectEvaluation) {
  Rng rng(17);
  const Perm p = Perm::random_sub(9, 12, 6, rng);
  const DistMatrix m = DistMatrix::from(p);
  for (std::int64_t i = 0; i <= p.rows(); ++i) {
    for (std::int64_t j = 0; j <= p.cols(); ++j) {
      EXPECT_EQ(m.at(i, j), dist_at(p, i, j));
    }
  }
}

TEST(DistMatrix, BoundaryValues) {
  Rng rng(2);
  const Perm p = Perm::random(10, rng);
  const DistMatrix m = DistMatrix::from(p);
  // PΣ(i, 0) = 0 and PΣ(rows, j) = 0 by definition.
  for (std::int64_t i = 0; i <= 10; ++i) EXPECT_EQ(m.at(i, 0), 0);
  for (std::int64_t j = 0; j <= 10; ++j) EXPECT_EQ(m.at(10, j), 0);
  // PΣ(0, cols) counts all points.
  EXPECT_EQ(m.at(0, 10), 10);
}

TEST(DistMatrix, RoundTripToPerm) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const Perm p = Perm::random_sub(15, 11, 8, rng);
    EXPECT_EQ(DistMatrix::from(p).to_perm(), p);
  }
}

TEST(DistMatrix, DistributionMatricesAreMonge) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Perm p = Perm::random(20, rng);
    EXPECT_TRUE(DistMatrix::from(p).is_monge());
  }
}

TEST(DistMatrix, MinPlusProductIsMonge) {
  // Lemma 2.1: the (min,+) product of unit-Monge matrices is unit-Monge,
  // i.e. it is the distribution matrix of a permutation.
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Perm a = Perm::random(16, rng);
    const Perm b = Perm::random(16, rng);
    const DistMatrix prod = DistMatrix::from(a).minplus(DistMatrix::from(b));
    EXPECT_TRUE(prod.is_monge());
    const Perm c = prod.to_perm();
    EXPECT_TRUE(c.is_full_permutation());
  }
}

TEST(DistMatrix, MinPlusDimensionCheck) {
  const DistMatrix a = DistMatrix::from(Perm::identity(3));
  const DistMatrix b = DistMatrix::from(Perm::identity(4));
  EXPECT_THROW(a.minplus(b), std::logic_error);
}

TEST(DistMatrix, ToPermRejectsNonUnitDensity) {
  // The density at (r,c) must be 0 or 1; a jump of 2 is not a
  // distribution matrix of any sub-permutation.
  DistMatrix m(1, 1);
  m.at(0, 1) = 2;
  EXPECT_THROW(m.to_perm(), std::logic_error);
  // A negative density is just as invalid.
  DistMatrix neg(1, 1);
  neg.at(0, 1) = -1;
  EXPECT_THROW(neg.to_perm(), std::logic_error);
}

TEST(DistMatrix, ToPermRejectsTwoPointsInOneRow) {
  // Unit densities at (0,0) AND (0,1): each delta is a legal 1, but a
  // (sub-)permutation has at most one point per row.
  DistMatrix m(1, 2);
  m.at(0, 1) = 1;
  m.at(0, 2) = 2;
  EXPECT_THROW(m.to_perm(), std::logic_error);
}

TEST(DistMatrix, IsMongeDetectsViolation) {
  // at(0,0) + at(1,1) > at(0,1) + at(1,0) fails the Monge condition.
  DistMatrix m(1, 1);
  m.at(0, 0) = 1;
  EXPECT_FALSE(m.is_monge());
}

TEST(DistMatrix, DirectEvaluationEquivalenceFuzz) {
  // dist_at (O(points), matrix-free) must agree with the materialised
  // DistMatrix::from everywhere, across shapes: square/rectangular,
  // sparse/empty/full.
  Rng rng(29);
  for (int trial = 0; trial < 25; ++trial) {
    const std::int64_t rows = rng.next_in(0, 12);
    const std::int64_t cols = rng.next_in(0, 12);
    const std::int64_t k = rng.next_in(0, std::min(rows, cols));
    const Perm p = Perm::random_sub(rows, cols, k, rng);
    const DistMatrix m = DistMatrix::from(p);
    for (std::int64_t i = 0; i <= rows; ++i) {
      for (std::int64_t j = 0; j <= cols; ++j) {
        ASSERT_EQ(m.at(i, j), dist_at(p, i, j))
            << rows << "x" << cols << " k=" << k << " (" << i << "," << j
            << ")";
      }
    }
  }
  // dist_at validates its own bounds (always-on MONGE_CHECK).
  const Perm p = Perm::identity(4);
  EXPECT_THROW(dist_at(p, -1, 0), std::logic_error);
  EXPECT_THROW(dist_at(p, 0, 5), std::logic_error);
}

TEST(DistMatrix, AtBoundsAreDebugChecked) {
  const DistMatrix m = DistMatrix::from(Perm::identity(3));
  // The closed upper corners are IN range: the matrix is (rows+1)x(cols+1).
  EXPECT_EQ(m.at(3, 3), 0);
  EXPECT_EQ(m.at(0, 3), 3);
#ifndef NDEBUG
  // Out-of-range access throws under MONGE_DCHECK in debug builds (it is
  // compiled out in release, where access is undefined).
  EXPECT_THROW(m.at(-1, 0), std::logic_error);
  EXPECT_THROW(m.at(0, -1), std::logic_error);
  EXPECT_THROW(m.at(4, 0), std::logic_error);
  EXPECT_THROW(m.at(0, 4), std::logic_error);
  DistMatrix mut(2, 2);
  EXPECT_THROW(mut.at(3, 0) = 1, std::logic_error);
#endif
}

TEST(NaiveMultiply, IdentityIsNeutral) {
  Rng rng(7);
  const Perm p = Perm::random(12, rng);
  EXPECT_EQ(multiply_naive(Perm::identity(12), p), p);
  EXPECT_EQ(multiply_naive(p, Perm::identity(12)), p);
}

TEST(NaiveMultiply, ReverseIsIdempotent) {
  // The anti-diagonal permutation is idempotent under ⊡: its distribution
  // matrix is the pointwise-largest unit-Monge matrix, and min-plus with
  // itself reproduces it.
  for (std::int64_t n : {1, 2, 3, 5, 8}) {
    EXPECT_EQ(multiply_naive(Perm::reverse(n), Perm::reverse(n)),
              Perm::reverse(n))
        << "n=" << n;
  }
}

TEST(NaiveMultiply, AssociativityOnRandomInputs) {
  Rng rng(41);
  for (int trial = 0; trial < 5; ++trial) {
    const Perm a = Perm::random(10, rng);
    const Perm b = Perm::random(10, rng);
    const Perm c = Perm::random(10, rng);
    EXPECT_EQ(multiply_naive(multiply_naive(a, b), c),
              multiply_naive(a, multiply_naive(b, c)));
  }
}

TEST(NaiveMultiply, SubPermutationClosure) {
  // Lemma 2.2: products of sub-permutations are sub-permutations.
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    const Perm a = Perm::random_sub(9, 7, 5, rng);
    const Perm b = Perm::random_sub(7, 11, 4, rng);
    const Perm c = multiply_naive(a, b);
    EXPECT_EQ(c.rows(), 9);
    EXPECT_EQ(c.cols(), 11);
    EXPECT_LE(c.point_count(), 4);
  }
}

TEST(NaiveMultiply, EmptyOperandGivesEmptyProduct) {
  const Perm a(4, 3);  // all-zero
  Rng rng(1);
  const Perm b = Perm::random_sub(3, 5, 2, rng);
  EXPECT_EQ(multiply_naive(a, b).point_count(), 0);
  EXPECT_EQ(multiply_naive(b.transposed(), a.transposed()).point_count(), 0);
}

}  // namespace
}  // namespace monge
