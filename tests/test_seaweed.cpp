// The Perm-level product SeaweedEngine::multiply against the §2.1
// definition: the distribution-matrix oracle, algebraic laws, and the
// distribution-matrix identity at sampled entries for large n.
#include <gtest/gtest.h>

#include "monge/engine.h"
#include "oracles/distribution.h"
#include "testing.h"
#include "util/rng.h"

namespace monge {
namespace {

using testing::all_permutations;

TEST(Seaweed, ExhaustiveSmallPermutations) {
  SeaweedEngine engine;
  for (int n = 1; n <= 5; ++n) {
    const auto perms = all_permutations(n);
    for (const auto& pa : perms) {
      for (const auto& pb : perms) {
        const Perm a = Perm::from_rows(pa, n);
        const Perm b = Perm::from_rows(pb, n);
        ASSERT_EQ(engine.multiply(a, b), multiply_naive(a, b)) << "n=" << n;
      }
    }
  }
}

class SeaweedRandom : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SeaweedRandom, MatchesNaiveOracle) {
  SeaweedEngine engine;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  for (int trial = 0; trial < 6; ++trial) {
    const Perm a = Perm::random(GetParam(), rng);
    const Perm b = Perm::random(GetParam(), rng);
    ASSERT_EQ(engine.multiply(a, b), multiply_naive(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SeaweedRandom,
                         ::testing::Values<std::int64_t>(1, 2, 3, 5, 8, 13, 21,
                                                         34, 55, 89, 100, 128));

TEST(Seaweed, IdentityIsNeutral) {
  SeaweedEngine engine;
  Rng rng(5);
  const Perm p = Perm::random(200, rng);
  EXPECT_EQ(engine.multiply(Perm::identity(200), p), p);
  EXPECT_EQ(engine.multiply(p, Perm::identity(200)), p);
}

TEST(Seaweed, ReverseIsIdempotent) {
  SeaweedEngine engine;
  for (std::int64_t n : {1, 2, 7, 64, 129}) {
    EXPECT_EQ(engine.multiply(Perm::reverse(n), Perm::reverse(n)),
              Perm::reverse(n));
  }
}

TEST(Seaweed, AssociativityOnRandomInputs) {
  SeaweedEngine engine;
  Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t n = 64;
    const Perm a = Perm::random(n, rng);
    const Perm b = Perm::random(n, rng);
    const Perm c = Perm::random(n, rng);
    ASSERT_EQ(engine.multiply(engine.multiply(a, b), c),
              engine.multiply(a, engine.multiply(b, c)));
  }
}

TEST(Seaweed, ProductIsAlwaysFullPermutation) {
  SeaweedEngine engine;
  // Lemma 2.1 closure under ⊡, checked at a size where the recursion is
  // several levels deep and sizes are odd at many levels.
  Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    const std::int64_t n = 997;  // prime: every split is uneven
    const Perm a = Perm::random(n, rng);
    const Perm b = Perm::random(n, rng);
    EXPECT_TRUE(engine.multiply(a, b).is_full_permutation());
  }
}

TEST(Seaweed, LargeAgreementSpotCheck) {
  SeaweedEngine engine;
  // At n = 2048 the naive oracle is too slow; verify against the
  // distribution-matrix definition at sampled entries instead.
  Rng rng(3);
  const std::int64_t n = 2048;
  const Perm a = Perm::random(n, rng);
  const Perm b = Perm::random(n, rng);
  const Perm c = engine.multiply(a, b);
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t i = rng.next_in(0, n);
    const std::int64_t k = rng.next_in(0, n);
    // PΣ_C(i,k) = min_j (PΣ_A(i,j) + PΣ_B(j,k)); evaluate the min by a
    // linear scan using O(n) per-row/col prefix counting.
    std::vector<std::int64_t> pa_row(static_cast<std::size_t>(n) + 1);
    std::vector<std::int64_t> pb_col(static_cast<std::size_t>(n) + 1);
    // PΣ_A(i, j) over j: count of points with row >= i, col < j.
    {
      std::vector<std::int64_t> cnt(static_cast<std::size_t>(n) + 1, 0);
      for (std::int64_t r = i; r < n; ++r) {
        cnt[static_cast<std::size_t>(a.col_of(r)) + 1] += 1;
      }
      for (std::int64_t j = 0; j < n; ++j) {
        cnt[static_cast<std::size_t>(j) + 1] += cnt[static_cast<std::size_t>(j)];
      }
      pa_row = cnt;
    }
    // PΣ_B(j, k) over j: count of points with row >= j, col < k.
    {
      std::int64_t acc = 0;
      for (std::int64_t j = n; j >= 0; --j) {
        if (j < n && b.col_of(j) < k) ++acc;
        pb_col[static_cast<std::size_t>(j)] = acc;
      }
    }
    std::int64_t expect = std::numeric_limits<std::int64_t>::max();
    for (std::int64_t j = 0; j <= n; ++j) {
      expect = std::min(expect, pa_row[static_cast<std::size_t>(j)] +
                                    pb_col[static_cast<std::size_t>(j)]);
    }
    ASSERT_EQ(dist_at(c, i, k), expect) << "i=" << i << " k=" << k;
  }
}

TEST(Seaweed, RejectsSubPermutations) {
  SeaweedEngine engine;
  Perm p(3, 3);
  p.set(0, 0);
  EXPECT_THROW(engine.multiply(p, Perm::identity(3)), std::logic_error);
}

TEST(Seaweed, EmptyInput) {
  SeaweedEngine engine;
  EXPECT_EQ(engine.multiply(Perm(0, 0), Perm(0, 0)), Perm(0, 0));
}

}  // namespace
}  // namespace monge
