#include "monge/subperm.h"

#include <gtest/gtest.h>

#include <string>

#include "monge/engine.h"
#include "oracles/distribution.h"
#include "oracles/oracles.h"
#include "testing.h"
#include "util/rng.h"

namespace monge {
namespace {

struct SubCase {
  std::int64_t ra, n2, cb;  // a: ra×n2, b: n2×cb
  std::int64_t ka, kb;      // point counts
  std::uint64_t seed;
};

class SubPerm : public ::testing::TestWithParam<SubCase> {};

TEST_P(SubPerm, MatchesNaiveOracle) {
  const auto& cse = GetParam();
  Rng rng(cse.seed);
  for (int trial = 0; trial < 10; ++trial) {
    const Perm a = Perm::random_sub(cse.ra, cse.n2, cse.ka, rng);
    const Perm b = Perm::random_sub(cse.n2, cse.cb, cse.kb, rng);
    const Perm expect = multiply_naive(a, b);
    // Direct engine path and the padded legacy reference must both agree
    // with the oracle (and hence with each other) on every shape.
    ASSERT_EQ(subunit_multiply(a, b, default_seaweed_engine()), expect);
    ASSERT_EQ(subunit_multiply_padded(a, b, default_seaweed_engine()), expect);
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz: the direct (in-arena, no Perm round-trip) subunit path
// vs the §4.1 padded legacy reduction, over >1000 randomized shapes
// including degenerate (zero-dimension, empty, full) cases.
// ---------------------------------------------------------------------------
TEST(SubPermFuzz, DirectMatchesPaddedLegacy) {
  Rng rng(0xC0FFEE);
  SeaweedEngine direct_engine;
  SeaweedEngine padded_engine;
  std::int64_t cases = 0;
  while (cases < 1200) {
    const std::int64_t ra = static_cast<std::int64_t>(rng.next_below(41));
    const std::int64_t n2 = static_cast<std::int64_t>(rng.next_below(41));
    const std::int64_t cb = static_cast<std::int64_t>(rng.next_below(41));
    const std::int64_t max_ka = std::min(ra, n2);
    const std::int64_t max_kb = std::min(n2, cb);
    // Bias toward the boundary densities (empty / full) now and then.
    const auto pick_k = [&](std::int64_t mx) -> std::int64_t {
      const std::uint64_t kind = rng.next_below(6);
      if (kind == 0) return 0;
      if (kind == 1) return mx;
      return static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(mx) + 1));
    };
    const Perm a = Perm::random_sub(ra, n2, pick_k(max_ka), rng);
    const Perm b = Perm::random_sub(n2, cb, pick_k(max_kb), rng);
    const Perm got = subunit_multiply(a, b, direct_engine);
    ASSERT_EQ(got, subunit_multiply_padded(a, b, padded_engine))
        << "ra=" << ra << " n2=" << n2 << " cb=" << cb;
    // Spot-check a slice against the O(n^3) oracle as well.
    if (cases % 8 == 0) {
      ASSERT_EQ(got, multiply_naive(a, b))
          << "ra=" << ra << " n2=" << n2 << " cb=" << cb;
    }
    ++cases;
  }
}

// The raw-span entry point is the same computation without the Perm wrap
// (this is what the LIS kernel recursion calls).
TEST(SubPermFuzz, RawEntryPointMatchesPermWrapper) {
  Rng rng(555);
  SeaweedEngine engine;
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t ra = static_cast<std::int64_t>(rng.next_below(30));
    const std::int64_t n2 = static_cast<std::int64_t>(rng.next_below(30));
    const std::int64_t cb = static_cast<std::int64_t>(rng.next_below(30));
    const std::int64_t ka = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(std::min(ra, n2)) + 1));
    const std::int64_t kb = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(std::min(n2, cb)) + 1));
    const Perm a = Perm::random_sub(ra, n2, ka, rng);
    const Perm b = Perm::random_sub(n2, cb, kb, rng);
    const auto raw =
        testing::subunit_raw_product(engine, a.row_to_col(), b.row_to_col(),
                                     b.cols());
    ASSERT_EQ(Perm::from_rows(raw, b.cols()), subunit_multiply(a, b, engine));
  }
}

// Invalid sub-permutations (duplicate columns, out-of-range columns) are
// rejected by the direct path's always-on input validation.
TEST(SubPermFuzz, DirectPathRejectsMalformedInputs) {
  SeaweedEngine engine;
  std::vector<std::int32_t> dup{1, 1, kNone};   // duplicate column 1
  std::vector<std::int32_t> oob{0, 5, kNone};   // column 5 out of [0, 3)
  std::vector<std::int32_t> b{0, 1, 2};
  std::vector<std::int32_t> out(3, kNone);
  EXPECT_THROW(engine.subunit_multiply_into(dup, b, 3, out), std::logic_error);
  EXPECT_THROW(engine.subunit_multiply_into(oob, b, 3, out), std::logic_error);
  EXPECT_THROW(engine.subunit_multiply_into(b, dup, 3, out), std::logic_error);
  EXPECT_THROW(engine.subunit_multiply_into(b, oob, 3, out), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SubPerm,
    ::testing::Values(SubCase{4, 4, 4, 2, 3, 1}, SubCase{6, 9, 5, 4, 4, 2},
                      SubCase{10, 7, 12, 5, 6, 3}, SubCase{1, 8, 1, 1, 1, 4},
                      SubCase{16, 16, 16, 16, 16, 5},  // full permutations
                      SubCase{16, 16, 16, 0, 8, 6},    // empty A
                      SubCase{12, 20, 9, 7, 0, 7},     // empty B
                      SubCase{33, 17, 21, 11, 13, 8},
                      SubCase{5, 40, 6, 5, 6, 9},   // tall middle dimension
                      SubCase{40, 5, 40, 3, 2, 10}  // tiny middle dimension
                      ),
    [](const auto& tpi) {
      // Appends, not an operator+ chain: the chain trips a gcc-12
      // -Wrestrict false positive (PR105651) once inlined at -O3.
      std::string name;
      name += "r";
      name += std::to_string(tpi.param.ra);
      name += "m";
      name += std::to_string(tpi.param.n2);
      name += "c";
      name += std::to_string(tpi.param.cb);
      name += "ka";
      name += std::to_string(tpi.param.ka);
      name += "kb";
      name += std::to_string(tpi.param.kb);
      return name;
    });

TEST(SubPermBasics, FullPermutationsReduceToSeaweed) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const Perm a = Perm::random(64, rng);
    const Perm b = Perm::random(64, rng);
    EXPECT_EQ(subunit_multiply(a, b, default_seaweed_engine()),
              default_seaweed_engine().multiply(a, b));
  }
}

TEST(SubPermBasics, ZeroDimensions) {
  const Perm a(0, 0);
  const Perm b(0, 0);
  const Perm c = subunit_multiply(a, b, default_seaweed_engine());
  EXPECT_EQ(c.rows(), 0);
  EXPECT_EQ(c.cols(), 0);
}

TEST(SubPermBasics, MismatchedDimensionsThrow) {
  const Perm a(3, 4);
  const Perm b(5, 3);
  EXPECT_THROW(subunit_multiply(a, b, default_seaweed_engine()),
               std::logic_error);
}

TEST(SubPermBasics, PaddingContentIrrelevance) {
  // §4.1 argues the ∗ blocks are irrelevant. Cross-check: computing
  // through the naive oracle on the *unpadded* sub-permutations agrees
  // with the padded reduction for many shapes (covered above); here we
  // additionally pin down one hand-checked product.
  //   A = [ (0,1) ] in 2×3,  B = [ (1,0) ] in 3×2.
  Perm a(2, 3);
  a.set(0, 1);
  Perm b(3, 2);
  b.set(1, 0);
  const Perm c = subunit_multiply(a, b, default_seaweed_engine());
  // PΣ_A(i,j) = [i<=0][j>=2]; PΣ_B(j,k) = [j<=1][k>=1].
  // PΣ_C(i,k) = min_j(PΣ_A(i,j)+PΣ_B(j,k)): for (i,k)=(0,1): j=2 gives 1+0;
  // j=1 gives 0+1 ⇒ min 1... all entries: only C(0,?): the product has a
  // single point at (0,0).
  EXPECT_EQ(c, multiply_naive(a, b));
  EXPECT_EQ(c.point_count(), 1);
  EXPECT_EQ(c.col_of(0), 0);
}

TEST(SubPermBasics, ChainOfProductsStaysSubPermutation) {
  Rng rng(17);
  Perm acc = Perm::random_sub(20, 20, 15, rng);
  for (int step = 0; step < 6; ++step) {
    const Perm next = Perm::random_sub(20, 20, 12 + step, rng);
    acc = subunit_multiply(acc, next, default_seaweed_engine());
    // Closure (Lemma 2.2): still a valid sub-permutation; validation
    // happens inside Perm, so reaching here is the assertion. Point count
    // can only shrink or stay equal relative to min of operands.
    EXPECT_LE(acc.point_count(), 20);
  }
}

}  // namespace
}  // namespace monge
