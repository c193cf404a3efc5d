#include "oracles/steady_ant.h"

#include <gtest/gtest.h>

#include <span>
#include <string>

#include "monge/steady_ant_simd.h"
#include "oracles/delta.h"
#include "oracles/distribution.h"
#include "testing.h"
#include "util/rng.h"

namespace monge {
namespace {

using testing::all_permutations;
using testing::make_colored_split;

/// Splits the product a⊡b into two colored halves and runs the ant.
Perm ant_product(const Perm& a, const Perm& b) {
  const ColoredPointSet set = make_colored_split(a, b, 2);
  Perm union_perm(set.n(), set.n());
  std::vector<std::uint8_t> color(static_cast<std::size_t>(set.n()), 0);
  for (const auto& p : set.points()) {
    union_perm.set(p.row, p.col);
    color[static_cast<std::size_t>(p.row)] =
        static_cast<std::uint8_t>(p.color);
  }
  return steady_ant_combine(union_perm, color);
}

TEST(SteadyAnt, ExhaustiveSmallPermutations) {
  // Every pair of permutations of size 1..5 — 5!^2 products at the top size.
  for (int n = 1; n <= 5; ++n) {
    const auto perms = all_permutations(n);
    for (const auto& pa : perms) {
      for (const auto& pb : perms) {
        const Perm a = Perm::from_rows(pa, n);
        const Perm b = Perm::from_rows(pb, n);
        ASSERT_EQ(ant_product(a, b), multiply_naive(a, b))
            << "n=" << n;
      }
    }
  }
}

class SteadyAntRandom : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SteadyAntRandom, MatchesNaiveOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int trial = 0; trial < 8; ++trial) {
    const Perm a = Perm::random(GetParam(), rng);
    const Perm b = Perm::random(GetParam(), rng);
    ASSERT_EQ(ant_product(a, b), multiply_naive(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SteadyAntRandom,
                         ::testing::Values<std::int64_t>(2, 3, 6, 7, 8, 15, 16,
                                                         31, 33, 48, 64, 96));

TEST(SteadyAnt, ThresholdsMatchBruteForceDelta) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t n = 24;
    const Perm a = Perm::random(n, rng);
    const Perm b = Perm::random(n, rng);
    const ColoredPointSet set = make_colored_split(a, b, 2);

    std::vector<std::int32_t> rc(static_cast<std::size_t>(n));
    std::vector<std::uint8_t> color(static_cast<std::size_t>(n));
    for (const auto& p : set.points()) {
      rc[static_cast<std::size_t>(p.row)] = static_cast<std::int32_t>(p.col);
      color[static_cast<std::size_t>(p.row)] =
          static_cast<std::uint8_t>(p.color);
    }
    const auto t = steady_ant_thresholds(rc, color);
    ASSERT_EQ(static_cast<std::int64_t>(t.size()), n + 1);
    for (std::int64_t j = 0; j <= n; ++j) {
      // t[j] = max{i : delta(i,j) <= 0}.
      std::int64_t expect = 0;
      for (std::int64_t i = 0; i <= n; ++i) {
        if (set.delta(0, 1, i, j) <= 0) expect = i;
      }
      ASSERT_EQ(t[static_cast<std::size_t>(j)], expect) << "j=" << j;
    }
    // Thresholds are nonincreasing (monotone demarcation line).
    for (std::int64_t j = 0; j < n; ++j) {
      ASSERT_GE(t[static_cast<std::size_t>(j)],
                t[static_cast<std::size_t>(j) + 1]);
    }
    EXPECT_EQ(t[0], n);
  }
}

TEST(SteadyAnt, AgreesWithOptTableReconstruction) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t n = 20;
    const Perm a = Perm::random(n, rng);
    const Perm b = Perm::random(n, rng);
    const ColoredPointSet set = make_colored_split(a, b, 2);
    EXPECT_EQ(combine_opt_table(set), ant_product(a, b));
  }
}

TEST(SteadyAnt, SingleColorUnionIsIdentityOperation) {
  // If every point belongs to subproblem 0 the combine must return the
  // union unchanged (F_0 is the only candidate).
  Rng rng(7);
  const Perm p = Perm::random(32, rng);
  std::vector<std::uint8_t> color(32, 0);
  EXPECT_EQ(steady_ant_combine(p, color), p);
  std::vector<std::uint8_t> color1(32, 1);
  EXPECT_EQ(steady_ant_combine(p, color1), p);
}

TEST(SteadyAnt, RejectsNonPermutationUnion) {
  Perm p(3, 3);
  p.set(0, 0);
  p.set(1, 1);  // row 2 empty
  std::vector<std::uint8_t> color(3, 0);
  EXPECT_THROW(steady_ant_combine(p, color), std::logic_error);
}

// ---------------------------------------------------------------------------
// The SIMD steady-ant combine (steady_ant_simd.h): every available ISA path
// must be bit-identical — out, t AND col_pk — to the packed scalar walk,
// which is itself pinned to the legacy standalone reference.
// ---------------------------------------------------------------------------

/// row_pk[r] = (col << 1) | color, the packed input the engine's combine
/// consumes.
std::vector<std::int32_t> pack_rows(std::span<const std::int32_t> rc,
                                    std::span<const std::uint8_t> color) {
  std::vector<std::int32_t> row_pk(rc.size());
  for (std::size_t r = 0; r < rc.size(); ++r) {
    row_pk[r] = static_cast<std::int32_t>((rc[r] << 1) |
                                          static_cast<std::int32_t>(color[r]));
  }
  return row_pk;
}

struct PackedCombineResult {
  std::vector<std::int32_t> col_pk, t, out;
  friend bool operator==(const PackedCombineResult&,
                         const PackedCombineResult&) = default;
};

PackedCombineResult run_scalar_oracle(std::span<const std::int32_t> row_pk) {
  const std::size_t n = row_pk.size();
  PackedCombineResult res{std::vector<std::int32_t>(n),
                          std::vector<std::int32_t>(n + 1),
                          std::vector<std::int32_t>(n)};
  steady_ant_packed_into(SteadyAntIsa::kScalar, row_pk, res.col_pk, res.t,
                         res.out);
  return res;
}

PackedCombineResult run_isa(SteadyAntIsa isa,
                            std::span<const std::int32_t> row_pk) {
  const std::size_t n = row_pk.size();
  PackedCombineResult res{std::vector<std::int32_t>(n),
                          std::vector<std::int32_t>(n + 1),
                          std::vector<std::int32_t>(n)};
  steady_ant_packed_into(isa, row_pk, res.col_pk, res.t, res.out);
  return res;
}

/// Runs every available ISA (kScalar included — it exercises the shared
/// dispatch plumbing) against the scalar oracle.
void expect_all_isas_match(std::span<const std::int32_t> row_pk,
                           const std::string& what) {
  const PackedCombineResult expect = run_scalar_oracle(row_pk);
  for (const SteadyAntIsa isa : steady_ant_available_isas()) {
    const PackedCombineResult got = run_isa(isa, row_pk);
    ASSERT_EQ(got.out, expect.out)
        << what << " isa=" << steady_ant_isa_name(isa);
    ASSERT_EQ(got.t, expect.t) << what << " isa=" << steady_ant_isa_name(isa);
    ASSERT_EQ(got.col_pk, expect.col_pk)
        << what << " isa=" << steady_ant_isa_name(isa);
  }
}

TEST(SteadyAntSimd, ScalarIsAlwaysAvailable) {
  const auto isas = steady_ant_available_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), SteadyAntIsa::kScalar);
  bool active_listed = false;
  for (const SteadyAntIsa isa : isas) {
    EXPECT_STRNE(steady_ant_isa_name(isa), "unknown");
    active_listed = active_listed || isa == steady_ant_active_isa();
  }
  EXPECT_TRUE(active_listed)
      << "active ISA " << steady_ant_isa_name(steady_ant_active_isa())
      << " not in the available list";
}

// >1000 differential fuzz cases per run: random colorings, all-one-color
// and alternating-color unions, adversarial monotone permutations
// (identity / reversal with block colorings force the longest descents),
// and real §3.1 product splits. Any row coloring of a full permutation is
// a valid H = 2 union (each color class is a sub-permutation of its rows
// and columns), so the generators below are all within contract.
TEST(SteadyAntSimd, DifferentialFuzzAgainstScalar) {
  Rng rng(20260730);
  std::int64_t cases = 0;
  const std::int64_t sizes[] = {2,  3,  4,  5,  7,  8,   9,   15,  16,
                                17, 31, 33, 63, 64, 65,  96,  128, 200};
  for (const std::int64_t n : sizes) {
    for (int rep = 0; rep < 10; ++rep) {  // 18 sizes × 10 reps × 6 colorings
      // Permutation family: random, identity, reversal.
      std::vector<std::int32_t> rc;
      switch (rep % 3) {
        case 0:
          rc = rng.permutation(n);
          break;
        case 1:
          rc.resize(static_cast<std::size_t>(n));
          for (std::int64_t r = 0; r < n; ++r) {
            rc[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(r);
          }
          break;
        default:
          rc.resize(static_cast<std::size_t>(n));
          for (std::int64_t r = 0; r < n; ++r) {
            rc[static_cast<std::size_t>(r)] =
                static_cast<std::int32_t>(n - 1 - r);
          }
          break;
      }
      // Coloring family: random, all-0, all-1, alternating, top/bottom
      // half blocks (both orders) — the block colorings on monotone
      // permutations are the adversarial long-descent inputs.
      for (int fam = 0; fam < 6; ++fam) {
        std::vector<std::uint8_t> color(static_cast<std::size_t>(n));
        for (std::int64_t r = 0; r < n; ++r) {
          const auto u = static_cast<std::size_t>(r);
          switch (fam) {
            case 0:
              color[u] = static_cast<std::uint8_t>(rng.next_below(2));
              break;
            case 1:
              color[u] = 0;
              break;
            case 2:
              color[u] = 1;
              break;
            case 3:
              color[u] = static_cast<std::uint8_t>(r & 1);
              break;
            case 4:
              color[u] = static_cast<std::uint8_t>(r < n / 2 ? 0 : 1);
              break;
            default:
              color[u] = static_cast<std::uint8_t>(r < n / 2 ? 1 : 0);
              break;
          }
        }
        const auto row_pk = pack_rows(rc, color);
        expect_all_isas_match(row_pk, "n=" + std::to_string(n) +
                                          " fam=" + std::to_string(fam));
        ++cases;
      }
    }
  }
  // Real product splits on top of the synthetic families.
  for (int rep = 0; rep < 40; ++rep) {
    const std::int64_t n = rng.next_in(2, 48);
    const ColoredPointSet set =
        make_colored_split(Perm::random(n, rng), Perm::random(n, rng), 2);
    std::vector<std::int32_t> rc(static_cast<std::size_t>(n));
    std::vector<std::uint8_t> color(static_cast<std::size_t>(n));
    for (const auto& p : set.points()) {
      rc[static_cast<std::size_t>(p.row)] = static_cast<std::int32_t>(p.col);
      color[static_cast<std::size_t>(p.row)] =
          static_cast<std::uint8_t>(p.color);
    }
    expect_all_isas_match(pack_rows(rc, color), "product split");
    ++cases;
  }
  EXPECT_GT(cases, 1000);
}

// Beyond scalar-equivalence: on real splits the packed combine (every ISA)
// must reconstruct the actual product PA ⊡ PB.
TEST(SteadyAntSimd, MatchesNaiveOracleOnProductSplits) {
  Rng rng(424242);
  for (const std::int64_t n : {16, 33, 64}) {
    for (int rep = 0; rep < 4; ++rep) {
      const Perm a = Perm::random(n, rng);
      const Perm b = Perm::random(n, rng);
      const ColoredPointSet set = make_colored_split(a, b, 2);
      std::vector<std::int32_t> rc(static_cast<std::size_t>(n));
      std::vector<std::uint8_t> color(static_cast<std::size_t>(n));
      for (const auto& p : set.points()) {
        rc[static_cast<std::size_t>(p.row)] = static_cast<std::int32_t>(p.col);
        color[static_cast<std::size_t>(p.row)] =
            static_cast<std::uint8_t>(p.color);
      }
      const auto row_pk = pack_rows(rc, color);
      const Perm expect = multiply_naive(a, b);
      for (const SteadyAntIsa isa : steady_ant_available_isas()) {
        const PackedCombineResult got = run_isa(isa, row_pk);
        ASSERT_EQ(Perm::from_rows(got.out, n), expect)
            << "n=" << n << " isa=" << steady_ant_isa_name(isa);
      }
    }
  }
}

// The packed scalar walk is itself pinned to the legacy standalone
// reference: same product and same demarcation thresholds.
TEST(SteadyAntSimd, ScalarPackedMatchesLegacyStandalone) {
  Rng rng(55);
  for (int rep = 0; rep < 20; ++rep) {
    const std::int64_t n = rng.next_in(2, 80);
    const auto rc = rng.permutation(n);
    std::vector<std::uint8_t> color(static_cast<std::size_t>(n));
    for (auto& c : color) c = static_cast<std::uint8_t>(rng.next_below(2));
    const PackedCombineResult got = run_scalar_oracle(pack_rows(rc, color));
    EXPECT_EQ(got.out, steady_ant_combine_raw(rc, color));
    const auto t64 = steady_ant_thresholds(rc, color);
    ASSERT_EQ(got.t.size(), t64.size());
    for (std::size_t j = 0; j < t64.size(); ++j) {
      EXPECT_EQ(static_cast<std::int64_t>(got.t[j]), t64[j]) << "j=" << j;
    }
  }
}

// Pinned golden (Rng(20260729), n = 24): a future ISA path or a combine
// refactor cannot silently drift — the expected bytes are spelled out.
TEST(SteadyAntSimd, PinnedGolden) {
  const std::vector<std::int32_t> kGoldenRowPk{
      26, 18, 12, 35, 4,  11, 9,  24, 15, 28, 45, 46,
      30, 3,  38, 21, 1,  7,  37, 43, 40, 23, 32, 16};
  const std::vector<std::int32_t> kGoldenT{24, 23, 22, 22, 20, 17, 16, 16, 14,
                                           13, 13, 13, 13, 13, 13, 13, 13, 11,
                                           8,  8,  6,  5,  5,  5,  3};
  const std::vector<std::int32_t> kGoldenOut{13, 9,  6,  23, 2, 20, 19, 12,
                                             17, 14, 22, 16, 15, 8, 7,  10,
                                             5,  4,  18, 21, 3,  11, 1,  0};
  for (const SteadyAntIsa isa : steady_ant_available_isas()) {
    const PackedCombineResult got = run_isa(isa, kGoldenRowPk);
    EXPECT_EQ(got.out, kGoldenOut) << steady_ant_isa_name(isa);
    EXPECT_EQ(got.t, kGoldenT) << steady_ant_isa_name(isa);
  }
  EXPECT_EQ(run_scalar_oracle(kGoldenRowPk).out, kGoldenOut);
}

// Degenerate shapes are resolved by explicit early-outs in the dispatcher;
// no ISA kernel may ever see an empty span, and n = 1 must match the
// scalar walk for both colors.
TEST(SteadyAntSimd, DegenerateShapes) {
  for (const SteadyAntIsa isa : steady_ant_available_isas()) {
    {
      std::vector<std::int32_t> t(1, -7);
      steady_ant_packed_into(isa, {}, {}, t, {});
      EXPECT_EQ(t[0], 0) << steady_ant_isa_name(isa);
    }
    for (const std::int32_t color : {0, 1}) {
      const std::vector<std::int32_t> row_pk{color};
      const PackedCombineResult got = run_isa(isa, row_pk);
      const PackedCombineResult expect = run_scalar_oracle(row_pk);
      EXPECT_EQ(got.out, expect.out)
          << steady_ant_isa_name(isa) << " color=" << color;
      EXPECT_EQ(got.t, expect.t)
          << steady_ant_isa_name(isa) << " color=" << color;
      EXPECT_EQ(got.col_pk, expect.col_pk)
          << steady_ant_isa_name(isa) << " color=" << color;
      EXPECT_EQ(got.out[0], 0);
    }
  }
}

}  // namespace
}  // namespace monge
