// The representation-layer battery: CoreSparsePerm converters, the
// core-sparse multiply vs. the dense engine oracle, the engine's
// density-adaptive dispatch (including batch/subunit entry points and
// thread-count determinism), and the Solver threading of the knob and the
// per-solve representation counters. Every multiply here is differential:
// the product permutation is mathematically unique, so the core-sparse
// paths must be bit-identical to a cutoff-0 (pure dense) engine on every
// input — the PR 2/4 oracle harness style.
//
// All suites are named CoreSparse* so the
// monge_tests_core_sparse_shuffled_stress ctest entry and the sanitizer CI
// filters can select the whole battery with one pattern.
#include "monge/core_sparse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "lcs/hunt_szymanski.h"
#include "lis/sequential.h"
#include "monge/engine.h"
#include "monge/permutation.h"
#include "oracles/oracles.h"
#include "testing.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace monge {
namespace {

using testing::all_permutations;

std::vector<std::int32_t> identity_raw(std::int64_t n) {
  std::vector<std::int32_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), std::int32_t{0});
  return p;
}

void shuffle_window(std::vector<std::int32_t>& p, std::int64_t start,
                    std::int64_t width, Rng& rng) {
  for (std::int64_t i = width - 1; i > 0; --i) {
    std::swap(p[static_cast<std::size_t>(start + i)],
              p[static_cast<std::size_t>(start + rng.next_below(i + 1))]);
  }
}

/// Identity with `clusters` shuffled windows of the given width — the
/// near-identity / block-shuffled shape family (small localized core).
std::vector<std::int32_t> near_identity_perm(std::int64_t n,
                                             std::int64_t clusters,
                                             std::int64_t width, Rng& rng) {
  auto p = identity_raw(n);
  for (std::int64_t c = 0; c < clusters && width <= n; ++c) {
    shuffle_window(p, rng.next_below(n - width + 1), width, rng);
  }
  return p;
}

/// Identity with `count` interior rows (drawn from [1, n-1)) permuted
/// among themselves: the core is sparse but scattered over the whole
/// range, so the block decomposition yields one interacting block of
/// nearly — but not exactly — size n.
std::vector<std::int32_t> scattered_core_perm(std::int64_t n,
                                              std::int64_t count, Rng& rng) {
  auto p = identity_raw(n);
  auto rows = rng.permutation(n - 2);
  rows.resize(static_cast<std::size_t>(count));
  auto targets = rows;
  rng.shuffle(targets);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    p[static_cast<std::size_t>(rows[k]) + 1] = targets[k] + 1;
  }
  return p;
}

/// Adversarial dense-core shape: one long-range swap blocks every interior
/// boundary, so the decomposition degenerates to a single block even
/// though the core has only two points.
std::vector<std::int32_t> long_swap_perm(std::int64_t n) {
  auto p = identity_raw(n);
  if (n >= 2) std::swap(p.front(), p.back());
  return p;
}

std::vector<std::int32_t> reverse_perm(std::int64_t n) {
  std::vector<std::int32_t> p(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    p[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(n - 1 - i);
  }
  return p;
}

/// The pure dense differential oracle: probing disabled entirely.
SeaweedEngine& oracle_engine() {
  static SeaweedEngine engine({.core_density_cutoff = 0.0});
  return engine;
}

DenseBlockSolver oracle_block_solver() {
  return [](std::span<const std::int32_t> a, std::span<const std::int32_t> b,
            std::span<std::int32_t> out) {
    oracle_engine().multiply_into(a, b, out);
  };
}

// ---------------------------------------------------------------------------
// CoreSparsePerm: converters, probes, run metadata.
// ---------------------------------------------------------------------------

TEST(CoreSparsePerm, RoundTripIsLosslessAcrossShapes) {
  Rng rng(20260808);
  int cases = 0;
  for (const std::int64_t n : {0, 1, 2, 3, 7, 64, 257}) {
    std::vector<std::vector<std::int32_t>> shapes;
    shapes.push_back(identity_raw(n));
    shapes.push_back(long_swap_perm(n));
    shapes.push_back(reverse_perm(n));
    for (int rep = 0; rep < 4; ++rep) shapes.push_back(rng.permutation(n));
    if (n >= 8) shapes.push_back(near_identity_perm(n, 2, 4, rng));
    for (const auto& p : shapes) {
      const auto sparse = CoreSparsePerm::from_dense(p);
      EXPECT_EQ(sparse.n(), n);
      EXPECT_EQ(sparse.to_dense(), p);
      EXPECT_EQ(sparse.core_size(), core_size_of(p));
      EXPECT_EQ(sparse, CoreSparsePerm::from_dense(p));
      std::vector<std::int32_t> out(static_cast<std::size_t>(n));
      sparse.to_dense_into(out);
      EXPECT_EQ(out, p);
      ++cases;
    }
  }
  EXPECT_GE(cases, 50);
}

TEST(CoreSparsePerm, IdentityHasEmptyCore) {
  const auto id = CoreSparsePerm::identity(9);
  EXPECT_EQ(id.n(), 9);
  EXPECT_EQ(id.core_size(), 0);
  EXPECT_EQ(id.core_density(), 0.0);
  EXPECT_EQ(id, CoreSparsePerm::from_dense(identity_raw(9)));
  const auto runs = id.identity_runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (IdentityRun{0, 9}));
  EXPECT_EQ(CoreSparsePerm::identity(0).core_density(), 0.0);
  EXPECT_TRUE(CoreSparsePerm::identity(0).identity_runs().empty());
}

TEST(CoreSparsePerm, IdentityRunsTileTheComplementOfTheCore) {
  // p = [0 1 | 3 2 | 4 5 6 | 8 7]: runs {0,2}, {4,3}; core rows 2,3,7,8.
  std::vector<std::int32_t> p{0, 1, 3, 2, 4, 5, 6, 8, 7};
  const auto sparse = CoreSparsePerm::from_dense(p);
  EXPECT_EQ(sparse.core_size(), 4);
  const auto runs = sparse.identity_runs();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (IdentityRun{0, 2}));
  EXPECT_EQ(runs[1], (IdentityRun{4, 3}));

  // Invariant fuzz: run lengths total n - core_size, runs avoid core rows.
  Rng rng(7);
  for (int rep = 0; rep < 50; ++rep) {
    const std::int64_t n = 1 + rng.next_below(80);
    const auto q = near_identity_perm(n, 1 + rng.next_below(3),
                                      std::min<std::int64_t>(n, 5), rng);
    const auto s = CoreSparsePerm::from_dense(q);
    std::int64_t total = 0;
    for (const auto& run : s.identity_runs()) total += run.len;
    EXPECT_EQ(total, n - s.core_size());
  }

  // A full-core permutation has no identity runs.
  EXPECT_TRUE(CoreSparsePerm::from_dense(reverse_perm(6))
                  .identity_runs()
                  .empty());
}

TEST(CoreSparsePerm, FromDenseValidates) {
  EXPECT_THROW(CoreSparsePerm::from_dense(std::vector<std::int32_t>{0, 0}),
               std::logic_error);
  EXPECT_THROW(CoreSparsePerm::from_dense(std::vector<std::int32_t>{2, 0}),
               std::logic_error);
  EXPECT_THROW(CoreSparsePerm::from_dense(std::vector<std::int32_t>{-1, 0}),
               std::logic_error);
  EXPECT_THROW(CoreSparsePerm::identity(-1), std::logic_error);
  std::vector<std::int32_t> two(2);
  EXPECT_THROW(CoreSparsePerm::identity(3).to_dense_into(two),
               std::logic_error);
}

TEST(CoreSparsePerm, CoreExceedsAgreesWithCoreSizeOf) {
  Rng rng(11);
  for (int rep = 0; rep < 100; ++rep) {
    const std::int64_t n = rng.next_below(64);
    const auto p = rep % 2 == 0 ? rng.permutation(n)
                                : near_identity_perm(
                                      n, 1, std::min<std::int64_t>(n, 6), rng);
    const std::int64_t core = core_size_of(p);
    for (const std::int64_t limit : {std::int64_t{-1}, std::int64_t{0},
                                     core - 1, core, core + 1, n}) {
      EXPECT_EQ(core_exceeds(p, limit), core > limit)
          << "n=" << n << " core=" << core << " limit=" << limit;
    }
  }
}

TEST(CoreSparsePerm, PermCoreHelpersCountOffIdentityRows) {
  EXPECT_EQ(Perm::identity(8).core_size(), 0);
  EXPECT_EQ(Perm::identity(8).core_density(), 0.0);
  EXPECT_EQ(Perm::reverse(8).core_size(), 8);
  EXPECT_EQ(Perm::reverse(8).core_density(), 1.0);
  EXPECT_EQ(Perm().core_size(), 0);
  EXPECT_EQ(Perm().core_density(), 0.0);
  // Empty (kNone) rows differ from the identity pattern and count as core.
  Perm sub(4, 4);
  sub.set(0, 0);
  sub.set(2, 1);
  EXPECT_EQ(sub.core_size(), 3);  // rows 1, 3 empty; row 2 off-diagonal
  EXPECT_EQ(sub.core_density(), 0.75);
  // Agreement with the raw-span helper on full permutations.
  Rng rng(13);
  for (int rep = 0; rep < 20; ++rep) {
    const Perm p = Perm::random(1 + rng.next_below(50), rng);
    EXPECT_EQ(p.core_size(), core_size_of(p.row_to_col()));
  }
}

// ---------------------------------------------------------------------------
// core_sparse_multiply vs. the dense oracle.
// ---------------------------------------------------------------------------

TEST(CoreSparseMultiply, ExhaustiveSmallPermutations) {
  for (int n = 0; n <= 5; ++n) {
    const auto perms = all_permutations(n);
    for (const auto& pa : perms) {
      for (const auto& pb : perms) {
        const auto got = core_sparse_multiply(CoreSparsePerm::from_dense(pa),
                                              CoreSparsePerm::from_dense(pb),
                                              oracle_block_solver());
        ASSERT_EQ(got.to_dense(), testing::raw_product(oracle_engine(), pa, pb))
            << "n=" << n;
      }
    }
  }
}

// The headline differential fuzz: >= 1000 cases over random, near-identity,
// block-shuffled and adversarial dense-core shapes (plus n = 0/1 above).
TEST(CoreSparseMultiply, MatchesDenseOracleFuzz) {
  Rng rng(20260808);
  int cases = 0;
  const auto check = [&](const std::vector<std::int32_t>& a,
                         const std::vector<std::int32_t>& b) {
    const auto got = core_sparse_multiply(CoreSparsePerm::from_dense(a),
                                          CoreSparsePerm::from_dense(b),
                                          oracle_block_solver());
    ASSERT_EQ(got.to_dense(), testing::raw_product(oracle_engine(), a, b))
        << "n=" << a.size();
    ++cases;
  };
  for (const std::int64_t n : {2, 3, 5, 16, 17, 33, 64, 100, 129, 256}) {
    const auto shapes = [&](int which) -> std::vector<std::int32_t> {
      switch (which % 5) {
        case 0:
          return rng.permutation(n);
        case 1:
          return near_identity_perm(n, 1, std::min<std::int64_t>(n, 4), rng);
        case 2:
          return near_identity_perm(n, 3, std::min<std::int64_t>(n, 8), rng);
        case 3:
          return long_swap_perm(n);
        default:
          return n > 1 && rng.next_below(2) == 0 ? reverse_perm(n)
                                                 : identity_raw(n);
      }
    };
    for (int rep = 0; rep < 95; ++rep) {
      check(shapes(rep), shapes(rep + rng.next_below(5)));
    }
  }
  // Identity absorption: id ⊡ X == X == X ⊡ id, with zero dense blocks.
  for (int rep = 0; rep < 60; ++rep) {
    const std::int64_t n = 1 + rng.next_below(128);
    const auto x = rng.permutation(n);
    int dense_calls = 0;
    const DenseBlockSolver counting =
        [&](std::span<const std::int32_t> a, std::span<const std::int32_t> b,
            std::span<std::int32_t> out) {
          ++dense_calls;
          oracle_engine().multiply_into(a, b, out);
        };
    const auto sx = CoreSparsePerm::from_dense(x);
    const auto id = CoreSparsePerm::identity(n);
    EXPECT_EQ(core_sparse_multiply(id, sx, counting).to_dense(), x);
    EXPECT_EQ(core_sparse_multiply(sx, id, counting).to_dense(), x);
    EXPECT_EQ(dense_calls, 0);
    cases += 2;
  }
  EXPECT_GE(cases, 1000) << "differential battery shrank below the floor";
}

TEST(CoreSparseMultiply, DisjointCoresNeverPayADenseSolve) {
  // a's core lives in [0, 8), b's in [24, 32): every block is one-sided,
  // so the callback must never fire and the product is the overlay.
  Rng rng(99);
  auto a = identity_raw(32);
  shuffle_window(a, 0, 8, rng);
  auto b = identity_raw(32);
  shuffle_window(b, 24, 8, rng);
  int dense_calls = 0;
  const DenseBlockSolver counting =
      [&](std::span<const std::int32_t> da, std::span<const std::int32_t> db,
          std::span<std::int32_t> out) {
        ++dense_calls;
        oracle_engine().multiply_into(da, db, out);
      };
  const auto got = core_sparse_multiply(CoreSparsePerm::from_dense(a),
                                        CoreSparsePerm::from_dense(b),
                                        counting);
  EXPECT_EQ(dense_calls, 0);
  EXPECT_EQ(got.to_dense(), testing::raw_product(oracle_engine(), a, b));
}

TEST(CoreSparseMultiply, InteractingClustersPayOneBlockEach) {
  // Both cores perturb the same two windows; everything else is identity,
  // so exactly the two shared windows reach the dense solver, each as a
  // block no larger than the window.
  Rng rng(7);
  auto a = identity_raw(256);
  auto b = identity_raw(256);
  for (const std::int64_t start : {std::int64_t{10}, std::int64_t{200}}) {
    shuffle_window(a, start, 8, rng);
    shuffle_window(b, start, 8, rng);
  }
  int dense_calls = 0;
  std::size_t max_block = 0;
  const DenseBlockSolver counting =
      [&](std::span<const std::int32_t> da, std::span<const std::int32_t> db,
          std::span<std::int32_t> out) {
        ++dense_calls;
        max_block = std::max(max_block, da.size());
        oracle_engine().multiply_into(da, db, out);
      };
  const auto got = core_sparse_multiply(CoreSparsePerm::from_dense(a),
                                        CoreSparsePerm::from_dense(b),
                                        counting);
  EXPECT_LE(dense_calls, 2);
  EXPECT_LE(max_block, 8u);
  EXPECT_EQ(got.to_dense(), testing::raw_product(oracle_engine(), a, b));
}

TEST(CoreSparseMultiply, DefaultOverloadUsesTheThreadLocalEngine) {
  Rng rng(3);
  const auto a = near_identity_perm(100, 2, 6, rng);
  const auto b = rng.permutation(100);
  const auto got = core_sparse_multiply(CoreSparsePerm::from_dense(a),
                                        CoreSparsePerm::from_dense(b));
  EXPECT_EQ(got.to_dense(), testing::raw_product(oracle_engine(), a, b));
}

TEST(CoreSparseMultiply, SizeMismatchThrows) {
  EXPECT_THROW(core_sparse_multiply(CoreSparsePerm::identity(3),
                                    CoreSparsePerm::identity(4)),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// The engine's density-adaptive dispatch.
// ---------------------------------------------------------------------------

TEST(CoreSparseEngine, RejectsOutOfRangeOptions) {
  EXPECT_THROW(SeaweedEngine({.core_density_cutoff = -0.1}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.core_density_cutoff = 1.5}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.core_density_cutoff =
                                  std::numeric_limits<double>::quiet_NaN()}),
               std::logic_error);
  EXPECT_THROW(SeaweedEngine({.core_probe_min_n = 1}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.core_probe_min_n = 0}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.core_probe_min_n = -5}), std::logic_error);
  // Boundary values are legal and echoed verbatim, never clamped.
  const SeaweedEngine off({.core_density_cutoff = 0.0});
  EXPECT_EQ(off.options().core_density_cutoff, 0.0);
  const SeaweedEngine max({.core_density_cutoff = 1.0, .core_probe_min_n = 2});
  EXPECT_EQ(max.options().core_density_cutoff, 1.0);
  EXPECT_EQ(max.options().core_probe_min_n, 2);
}

// The adaptive engine vs. the cutoff-0 oracle across every shape family
// and knob mix — the engine-level half of the >= 1000-case battery. An
// aggressive probe configuration (cutoff 1.0, probe from n = 2) maximizes
// block-path traffic; the default configuration checks the shipped knobs.
TEST(CoreSparseEngine, AdaptiveMatchesDenseOracleFuzz) {
  Rng rng(20260809);
  int cases = 0;
  SeaweedEngine aggressive({.base_case_cutoff = 1,
                            .core_density_cutoff = 1.0,
                            .core_probe_min_n = 2});
  SeaweedEngine shipped{};  // default knobs
  const auto check = [&](const std::vector<std::int32_t>& a,
                         const std::vector<std::int32_t>& b) {
    const auto want = testing::raw_product(oracle_engine(), a, b);
    ASSERT_EQ(testing::raw_product(aggressive, a, b), want) << "n=" << a.size();
    ASSERT_EQ(testing::raw_product(shipped, a, b), want) << "n=" << a.size();
    cases += 2;
  };
  for (const std::int64_t n : {2, 3, 8, 31, 64, 65, 128, 200, 256}) {
    for (int rep = 0; rep < 56; ++rep) {
      const auto shape = [&](int which) -> std::vector<std::int32_t> {
        switch (which % 5) {
          case 0:
            return rng.permutation(n);
          case 1:
            return near_identity_perm(n, 1, std::min<std::int64_t>(n, 4),
                                      rng);
          case 2:
            return near_identity_perm(n, 4, std::min<std::int64_t>(n, 16),
                                      rng);
          case 3:
            return long_swap_perm(n);
          default:
            return identity_raw(n);
        }
      };
      check(shape(rep), shape(rep + 1 + rng.next_below(4)));
    }
  }
  EXPECT_GE(cases, 1000);
}

TEST(CoreSparseEngine, SubunitPathsMatchOracleAcrossDensities) {
  Rng rng(20260810);
  SeaweedEngine adaptive({.core_density_cutoff = 1.0, .core_probe_min_n = 2});
  int cases = 0;
  for (int rep = 0; rep < 120; ++rep) {
    const std::int64_t ra = rng.next_below(40);
    const std::int64_t n2 = rng.next_below(40);
    const std::int64_t bc = rng.next_below(40);
    const std::int64_t ka = std::min(ra, n2) == 0
                                ? 0
                                : rng.next_below(std::min(ra, n2) + 1);
    const std::int64_t kb = std::min(n2, bc) == 0
                                ? 0
                                : rng.next_below(std::min(n2, bc) + 1);
    const auto a = Perm::random_sub(ra, n2, ka, rng).row_to_col();
    const auto b = Perm::random_sub(n2, bc, kb, rng).row_to_col();
    EXPECT_EQ(testing::subunit_raw_product(adaptive, a, b, bc),
              testing::subunit_raw_product(oracle_engine(), a, b, bc))
        << "ra=" << ra << " n2=" << n2 << " bc=" << bc;
    ++cases;
  }
  // Near-identity square subunit inputs: the padded core solve sees tiny
  // cores and must take the block path (counter check below relies on it).
  for (int rep = 0; rep < 40; ++rep) {
    const std::int64_t n = 80 + rng.next_below(80);
    auto a = near_identity_perm(n, 2, 6, rng);
    auto b = near_identity_perm(n, 2, 6, rng);
    EXPECT_EQ(testing::subunit_raw_product(adaptive, a, b, n),
              testing::subunit_raw_product(oracle_engine(), a, b, n));
    ++cases;
  }
  EXPECT_GE(cases, 160);
}

TEST(CoreSparseEngine, BatchEntryPointsMatchPerPairSolves) {
  Rng rng(20260811);
  for (const int threads : {0, 2, 4}) {
    std::unique_ptr<ThreadPool> pool;
    SeaweedEngineOptions opt{.core_density_cutoff = 0.5,
                             .core_probe_min_n = 8};
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      opt.pool = pool.get();
      opt.parallel_grain = 16;
    }
    SeaweedEngine adaptive(opt);

    std::vector<std::vector<std::int32_t>> storage;
    for (const std::int64_t n : {0, 1, 5, 33, 64, 150}) {
      storage.push_back(rng.permutation(n));
      storage.push_back(near_identity_perm(
          n, 2, std::min<std::int64_t>(n, 8), rng));
      storage.push_back(identity_raw(n));
      storage.push_back(long_swap_perm(n));
    }
    std::vector<PermPairView> pairs;
    for (std::size_t i = 0; i + 1 < storage.size(); i += 2) {
      if (storage[i].size() == storage[i + 1].size()) {
        pairs.push_back({storage[i], storage[i + 1]});
      }
    }
    const auto got = adaptive.multiply_raw_batch(pairs);
    ASSERT_EQ(got.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(got[i],
                testing::raw_product(oracle_engine(), pairs[i].first,
                                     pairs[i].second))
          << "pair " << i << " threads=" << threads;
    }
  }
}

TEST(CoreSparseEngine, CountersTrackDispatchDecisions) {
  // Sparse input at probing size: the block path must fire and copy.
  SeaweedEngine adaptive({.core_density_cutoff = 0.25,
                          .core_probe_min_n = 64});
  Rng rng(20260812);
  const std::int64_t n = 4096;
  const auto a = near_identity_perm(n, 3, 8, rng);
  const auto b = near_identity_perm(n, 3, 8, rng);
  const auto before = adaptive.representation_stats();
  const auto got = testing::raw_product(adaptive, a, b);
  const auto delta = adaptive.representation_stats() - before;
  EXPECT_EQ(got, testing::raw_product(oracle_engine(), a, b));
  EXPECT_GT(delta.core_sparse_nodes, 0);
  EXPECT_GT(delta.blocks_copied + delta.blocks_dense, 0);

  // Dense random input: the probe must bail out at every node.
  const auto before_dense = adaptive.representation_stats();
  testing::raw_product(adaptive, rng.permutation(n), rng.permutation(n));
  const auto dense_delta = adaptive.representation_stats() - before_dense;
  EXPECT_GT(dense_delta.dense_nodes, 0);
  EXPECT_EQ(dense_delta.core_sparse_nodes, 0);
  EXPECT_EQ(dense_delta.blocks_copied, 0);
  EXPECT_EQ(dense_delta.blocks_dense, 0);

  // cutoff 0 never probes, so it never counts.
  const auto oracle_before = oracle_engine().representation_stats();
  testing::raw_product(oracle_engine(), a, b);
  EXPECT_EQ(oracle_engine().representation_stats() - oracle_before,
            RepresentationStats{});
}

TEST(CoreSparseEngine, ResultsAndCountersDeterministicUnderThreadCounts) {
  Rng rng(20260813);
  const std::int64_t n = 2048;
  // Localized clusters, and a scattered core whose one interacting block
  // is larger than parallel_grain but smaller than n — the forked dense
  // recursion inside that block must budget sizes the top-level split
  // never visits.
  const std::vector<std::pair<std::vector<std::int32_t>,
                              std::vector<std::int32_t>>>
      inputs = {
          {near_identity_perm(n, 4, 16, rng),
           near_identity_perm(n, 4, 16, rng)},
          {scattered_core_perm(n, n / 64, rng),
           scattered_core_perm(n, n / 64, rng)},
      };

  for (std::size_t input = 0; input < inputs.size(); ++input) {
    const auto& [a, b] = inputs[input];
    const auto want = testing::raw_product(oracle_engine(), a, b);
    RepresentationStats first{};
    bool have_first = false;
    for (const int threads : {1, 2, 3, 4}) {
      ThreadPool pool(threads);
      SeaweedEngine engine({.parallel_grain = 64,
                            .pool = &pool,
                            .core_density_cutoff = 0.25,
                            .core_probe_min_n = 64});
      const auto before = engine.representation_stats();
      EXPECT_EQ(testing::raw_product(engine, a, b), want)
          << "input=" << input << " threads=" << threads;
      const auto delta = engine.representation_stats() - before;
      if (!have_first) {
        first = delta;
        have_first = true;
      } else {
        EXPECT_EQ(delta, first) << "input=" << input << " threads=" << threads;
      }
    }
    EXPECT_GT(first.core_sparse_nodes, 0) << "input=" << input;
  }
}

TEST(CoreSparseEngine, BlockBudgetCoversBlocksUpToTheBaseCaseCutoff) {
  // A long swap (0, B-1) makes one dense block of size B. With a large
  // base-case cutoff, a block at or below the cutoff runs the cubic base
  // case, which can need more arena than the dense frame of a node just
  // above the cutoff. Fresh engines keep a warm arena from hiding a short
  // budget.
  const std::int64_t cutoff = 16;
  SeaweedEngine oracle({.base_case_cutoff = cutoff, .core_density_cutoff = 0});
  for (std::int64_t n = cutoff + 1; n <= 2 * cutoff + 8; ++n) {
    for (std::int64_t block = 2; block < n; ++block) {
      auto a = identity_raw(n);
      std::swap(a[0], a[static_cast<std::size_t>(block - 1)]);
      const auto b = a;
      SeaweedEngine engine({.base_case_cutoff = cutoff,
                            .core_density_cutoff = 0.25,
                            .core_probe_min_n = 2});
      EXPECT_EQ(testing::raw_product(engine, a, b),
                testing::raw_product(oracle, a, b))
          << "n=" << n << " block=" << block;
    }
  }
}

TEST(CoreSparseEngine, SubunitNearIdentityTakesTheBlockPath) {
  SeaweedEngine adaptive({.core_density_cutoff = 0.25,
                          .core_probe_min_n = 64});
  Rng rng(20260814);
  const std::int64_t n = 1024;
  const auto a = near_identity_perm(n, 2, 6, rng);
  const auto b = near_identity_perm(n, 2, 6, rng);
  const auto before = adaptive.representation_stats();
  const auto got = testing::subunit_raw_product(adaptive, a, b, n);
  const auto delta = adaptive.representation_stats() - before;
  EXPECT_EQ(got, testing::subunit_raw_product(oracle_engine(), a, b, n));
  EXPECT_GT(delta.core_sparse_nodes, 0)
      << "the padded subunit core solve should probe sparse";
}

// ---------------------------------------------------------------------------
// Solver threading: the knob and the per-solve representation delta.
// ---------------------------------------------------------------------------

TEST(CoreSparseSolver, ReportCarriesPerSolveRepresentationDelta) {
  Solver solver({.engine = {.core_density_cutoff = 0.25,
                            .core_probe_min_n = 64}});
  Rng rng(20260815);
  const std::int64_t n = 2048;

  MultiplyRequest sparse_req;
  sparse_req.a = Perm::from_rows(near_identity_perm(n, 3, 8, rng), n);
  sparse_req.b = Perm::from_rows(near_identity_perm(n, 3, 8, rng), n);
  const auto sparse_res = solver.try_solve(sparse_req);
  ASSERT_TRUE(sparse_res.ok());
  EXPECT_GT(sparse_res.report.representation.core_sparse_nodes, 0);

  MultiplyRequest dense_req;
  dense_req.a = Perm::random(n, rng);
  dense_req.b = Perm::random(n, rng);
  const auto dense_res = solver.try_solve(dense_req);
  ASSERT_TRUE(dense_res.ok());
  // A per-request delta, not a lifetime total: the sparse request's
  // decisions must not leak into this report.
  EXPECT_EQ(dense_res.report.representation.core_sparse_nodes, 0);
  EXPECT_GT(dense_res.report.representation.dense_nodes, 0);

  // Knob off through SolverOptions: all-zero representation stats.
  Solver dense_only({.engine = {.core_density_cutoff = 0.0}});
  const auto off_res = dense_only.try_solve(sparse_req);
  ASSERT_TRUE(off_res.ok());
  EXPECT_EQ(off_res.report.representation, RepresentationStats{});
  EXPECT_EQ(off_res.value.c, sparse_res.value.c);
}

TEST(CoreSparseSolver, LisKernelRouteOptsInAutomatically) {
  // A nearly sorted sequence rank-reduces to a near-identity permutation;
  // the level-order kernel merges must hit the block path with no caller
  // changes beyond the engine knob.
  Solver solver({.engine = {.core_density_cutoff = 0.25,
                            .core_probe_min_n = 64}});
  LisRequest req;
  req.seq.resize(4096);
  std::iota(req.seq.begin(), req.seq.end(), 0);
  std::swap(req.seq[100], req.seq[101]);
  std::swap(req.seq[3000], req.seq[3007]);
  req.want_kernel = true;
  const auto res = solver.try_solve(req);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value.lis, lis::lis_length(req.seq));
  EXPECT_GT(res.report.representation.core_sparse_nodes, 0);
}

// ---------------------------------------------------------------------------
// Satellite: the LCS match-limit guard, aligned across single and batch.
// ---------------------------------------------------------------------------

TEST(CoreSparseSolver, LcsMatchLimitValidation) {
  EXPECT_THROW(Solver({.lcs_engine_match_limit = 0}), InvalidRequestError);
  EXPECT_THROW(Solver({.lcs_engine_match_limit = -3}), InvalidRequestError);
  EXPECT_THROW(Solver({.lcs_engine_match_limit = kSeaweedEngineMaxN + 1}),
               InvalidRequestError);
  const Solver ok({.lcs_engine_match_limit = 5});
  EXPECT_EQ(ok.options().lcs_engine_match_limit, 5);
}

TEST(CoreSparseSolver, LcsMatchLimitAlignsSingleAndBatchAcrossBackends) {
  // Requests straddling the limit: fallback groups and engine groups must
  // produce identical answers on every route, single or batched.
  std::vector<LcsRequest> reqs;
  reqs.push_back({.s = {1, 2, 3, 4, 5, 6}, .t = {1, 2, 3, 4, 5, 6}});
  reqs.push_back({.s = {1, 1, 2, 2}, .t = {1, 2, 1, 2}});  // 8 matches
  reqs.push_back({.s = {7, 8, 9}, .t = {9, 8, 7}});        // 3 matches
  reqs.push_back({.s = {1, 2, 3, 4, 5, 6}, .t = {1, 2, 3, 4, 5, 6}});
  reqs.push_back({.s = {5, 5, 5}, .t = {6, 7}});           // 0 matches

  std::vector<std::int64_t> want_lcs;
  std::vector<std::int64_t> want_matches;
  for (const auto& r : reqs) {
    want_lcs.push_back(lcs::lcs_dp(r.s, r.t));
    want_matches.push_back(lcs::hs_match_count(r.s, r.t));
  }

  for (const std::int64_t limit : {1, 4, 7, 1 << 20}) {
    Solver seq({.lcs_engine_match_limit = limit});
    const auto batch = seq.solve_batch(std::span<const LcsRequest>(reqs));
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(batch[i].lcs, want_lcs[i]) << "limit=" << limit << " i=" << i;
      EXPECT_EQ(batch[i].matches, want_matches[i]);
      const auto single = seq.solve(reqs[i]);
      EXPECT_EQ(single.lcs, want_lcs[i]);
      EXPECT_EQ(single.matches, want_matches[i]);
    }
  }
}

TEST(CoreSparseSolver, MpcSimLcsFallsBackToPatiencePastTheLimit) {
  // PR 7 added the patience fallback only to the Sequential batch
  // grouping; a single MpcSim request past the limit used to march into
  // the cluster and throw from the engine's size guard. Now it degrades
  // to patience with zero rounds, like the batch grouping does.
  LcsRequest big;
  big.s = {1, 2, 3, 4, 5, 6, 7, 8};
  big.t = {1, 2, 3, 4, 5, 6, 7, 8};  // 8 matches

  Solver limited({.backend = SolverBackend::kMpcSim,
                  .lcs_engine_match_limit = 4});
  const auto res = limited.solve(big);
  EXPECT_EQ(res.lcs, 8);
  EXPECT_EQ(res.matches, 8);
  EXPECT_EQ(res.rounds, 0) << "no cluster work should have happened";
  EXPECT_EQ(limited.cluster(), nullptr)
      << "the fallback must not provision a cluster";

  // Under the limit the cluster route runs and reports rounds.
  Solver unlimited({.backend = SolverBackend::kMpcSim});
  const auto on_cluster = unlimited.solve(big);
  EXPECT_EQ(on_cluster.lcs, 8);
  EXPECT_GT(on_cluster.rounds, 0);
  EXPECT_NE(unlimited.cluster(), nullptr);
}

}  // namespace
}  // namespace monge
