#include "lis/sequential.h"

#include <gtest/gtest.h>

#include <string>

#include "lis/kernel.h"
#include "lis/mpc_lis.h"
#include "monge/engine.h"
#include "oracles/oracles.h"
#include "testing.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace monge::lis {
namespace {

std::vector<std::int64_t> to64(const std::vector<std::int32_t>& v) {
  return std::vector<std::int64_t>(v.begin(), v.end());
}

TEST(LisSequential, KnownValues) {
  EXPECT_EQ(lis_length(std::vector<std::int64_t>{}), 0);
  EXPECT_EQ(lis_length(std::vector<std::int64_t>{5}), 1);
  EXPECT_EQ(lis_length(std::vector<std::int64_t>{1, 2, 3}), 3);
  EXPECT_EQ(lis_length(std::vector<std::int64_t>{3, 2, 1}), 1);
  EXPECT_EQ(lis_length(std::vector<std::int64_t>{3, 1, 4, 1, 5, 9, 2, 6}), 4);
  // Duplicates: strictly increasing.
  EXPECT_EQ(lis_length(std::vector<std::int64_t>{2, 2, 2}), 1);
  EXPECT_EQ(lis_length(std::vector<std::int64_t>{1, 2, 2, 3}), 3);
}

TEST(LisSequential, PatienceMatchesDp) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::int64_t> seq(static_cast<std::size_t>(rng.next_in(0, 60)));
    for (auto& x : seq) x = rng.next_in(0, 20);  // duplicates likely
    ASSERT_EQ(lis_length(seq), lis_length_dp(seq));
  }
}

TEST(LisSequential, RankReduceStrictPreservesLis) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::int64_t> seq(static_cast<std::size_t>(rng.next_in(1, 50)));
    for (auto& x : seq) x = rng.next_in(-5, 5);
    const auto rank = rank_reduce_strict(seq);
    ASSERT_EQ(lis_length(seq), lis_length(to64(rank)));
  }
}

TEST(LisKernel, ExhaustiveSmallPermutations) {
  // Every permutation of sizes 1..7: the kernel must answer every window.
  for (int n = 1; n <= 7; ++n) {
    const auto perms = testing::all_permutations(n);
    for (const auto& p : perms) {
      const Perm kernel = lis_kernel(p, default_seaweed_engine());
      const auto seq = to64(p);
      for (std::int64_t l = 0; l < n; ++l) {
        for (std::int64_t r = l; r < n; ++r) {
          ASSERT_EQ(kernel_window_lis(kernel, l, r), lis_window(seq, l, r))
              << "n=" << n << " l=" << l << " r=" << r;
        }
      }
      ASSERT_EQ(lis_from_kernel(kernel), lis_length(seq));
    }
  }
}

TEST(LisWindow, EmptyWindowsAnswerZero) {
  // Empty windows (l > r) are legitimate queries and answer 0, even when
  // their endpoints fall outside [0, n): the r == -1 query on an empty
  // sequence, and off-the-end sliding windows.
  const std::vector<std::int64_t> empty;
  EXPECT_EQ(lis_window(empty, 0, -1), 0);
  const std::vector<std::int64_t> seq = {3, 1, 2};
  EXPECT_EQ(lis_window(seq, 0, -1), 0);
  EXPECT_EQ(lis_window(seq, 2, 1), 0);
  EXPECT_EQ(lis_window(seq, 5, 4), 0);
  EXPECT_THROW(lis_window(seq, 1, 3), std::logic_error);  // non-empty, OOB

  const Perm kernel =
      lis_kernel(std::vector<std::int32_t>{2, 0, 1}, default_seaweed_engine());
  EXPECT_EQ(kernel_window_lis(kernel, 0, -1), 0);
  EXPECT_EQ(kernel_window_lis(kernel, 5, 4), 0);
  const std::vector<std::pair<std::int64_t, std::int64_t>> windows = {
      {0, 2}, {0, -1}, {5, 4}, {1, 2}};
  const auto batch = kernel_window_lis_batch(kernel, windows);
  EXPECT_EQ(batch[1], 0);
  EXPECT_EQ(batch[2], 0);
  EXPECT_EQ(batch[0], lis_window(to64({2, 0, 1}), 0, 2));
}

class KernelRandom : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(KernelRandom, WindowsMatchOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto p = rng.permutation(GetParam());
  const Perm kernel = lis_kernel(p, default_seaweed_engine());
  const auto seq = to64(p);
  EXPECT_EQ(lis_from_kernel(kernel), lis_length(seq));
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t l = rng.next_in(0, GetParam() - 1);
    const std::int64_t r = rng.next_in(l, GetParam() - 1);
    windows.push_back({l, r});
  }
  const auto batch = kernel_window_lis_batch(kernel, windows);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    ASSERT_EQ(batch[i],
              lis_window(seq, windows[i].first, windows[i].second));
    ASSERT_EQ(batch[i], kernel_window_lis(kernel, windows[i].first,
                                          windows[i].second));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelRandom,
                         ::testing::Values<std::int64_t>(8, 17, 33, 64, 128,
                                                         257));

// Stress loop: duplicate-heavy random sequences, rank-reduced to a kernel,
// answered against the per-window patience oracle batch. (rank_reduce_strict
// preserves strict comparisons pointwise, so every window agrees.)
TEST(LisKernelStress, WindowBatchMatchesSequentialOracle) {
  Rng rng(20260729);
  for (int trial = 0; trial < 25; ++trial) {
    const std::int64_t n = rng.next_in(1, 200);
    std::vector<std::int64_t> seq(static_cast<std::size_t>(n));
    for (auto& x : seq) x = rng.next_in(-8, 8);
    const Perm kernel =
        lis_kernel(rank_reduce_strict(seq), default_seaweed_engine());
    std::vector<std::pair<std::int64_t, std::int64_t>> windows;
    for (int q = 0; q < 30; ++q) {
      const std::int64_t l = rng.next_in(0, n - 1);
      windows.push_back({l, rng.next_in(l - 1, n - 1)});  // l-1 = empty window
    }
    ASSERT_EQ(kernel_window_lis_batch(kernel, windows),
              lis_window_batch(seq, windows))
        << "trial " << trial << " n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Level-order builder vs the pre-change depth-first recursion.
// ---------------------------------------------------------------------------

// Kernels pinned from the depth-first recursion BEFORE the level-order
// restructuring (generated with the PR-2 kernel_rec on seeds 101..110,
// one rng.permutation(n) per seed). The level-order builder must
// reproduce them bit for bit.
TEST(LisKernelLevelOrder, PinnedGoldens) {
  struct Golden {
    std::vector<std::int32_t> perm;
    std::vector<std::int32_t> kernel;  // row->col, -1 = empty row
  };
  const std::vector<Golden> goldens = {
      // seed=101 n=1
      {{0}, {-1}},
      // seed=102 n=2
      {{0, 1}, {-1, -1}},
      // seed=103 n=5
      {{0, 1, 3, 2, 4}, {-1, -1, 3, -1, -1}},
      // seed=104 n=8
      {{5, 7, 0, 3, 6, 1, 4, 2}, {3, 2, -1, 6, 5, -1, 7, -1}},
      // seed=105 n=13
      {{5, 6, 1, 7, 4, 0, 3, 2, 10, 9, 11, 8, 12},
       {-1, 2, 6, 4, 5, -1, 7, -1, 9, -1, 11, -1, -1}},
      // seed=106 n=16
      {{11, 13, 14, 7, 6, 4, 15, 8, 3, 2, 10, 9, 0, 5, 12, 1},
       {14, 10, 3, 4, 5, -1, 7, 8, 9, 13, 11, 12, -1, -1, 15, -1}},
      // seed=107 n=23
      {{15, 16, 1, 8, 20, 14, 9, 19, 10, 5, 22, 21, 6, 17, 18, 4, 13, 7, 11,
        2, 3, 12, 0},
       {3, 2, -1, 21, 5, 6, 13, 8, 9, -1, 11, 12, 18, 16, 15, -1, 17, 20, 19,
        -1, -1, 22, -1}},
      // seed=108 n=32
      {{19, 14, 31, 4, 12, 27, 17, 25, 11, 24, 5, 21, 26, 29, 28, 6, 16, 9, 0,
        18, 22, 7, 3, 15, 30, 2, 10, 1, 13, 20, 23, 8},
       {1, 4, 3, -1, 20, 6, 9, 8, 11, 10, -1, 19, 16, 14, 15, 29, 17, 18, -1,
        23, 21, 22, 28, 26, 25, -1, 27, -1, -1, -1, 31, -1}},
      // seed=109 n=47
      {{2,  14, 42, 21, 39, 8,  20, 27, 6,  17, 23, 37, 13, 34, 18, 30,
        7,  35, 41, 9,  25, 0,  3,  5,  1,  15, 33, 40, 28, 43, 12, 44,
        22, 45, 32, 29, 46, 26, 24, 10, 31, 36, 38, 19, 11, 4,  16},
       {-1, 7,  3,  6,  5,  10, 9,  8,  27, 15, 13, 12, 26, 14, 25, 16,
        23, 20, 19, 22, 21, -1, -1, 24, -1, -1, 42, 28, 41, 30, -1, 32,
        -1, 34, 35, 40, 37, 38, 39, -1, -1, 46, 43, 44, 45, -1, -1}},
      // seed=110 n=64
      {{10, 3,  48, 31, 61, 50, 51, 40, 39, 30, 42, 19, 14, 38, 46, 24,
        34, 11, 25, 26, 59, 16, 18, 23, 53, 9,  52, 28, 36, 43, 27, 22,
        2,  13, 5,  45, 63, 0,  33, 12, 62, 15, 55, 29, 4,  20, 37, 47,
        21, 41, 49, 56, 54, 8,  58, 1,  32, 7,  6,  17, 44, 35, 57, 60},
       {1,  -1, 3,  19, 5,  10, 7,  8,  9,  13, 11, 12, 24, 16, 15, 18,
        17, -1, 23, 22, 21, -1, 47, 26, 25, 46, 27, 42, 33, 30, 31, 32,
        -1, 34, 40, 38, 37, -1, 39, -1, 41, 45, 43, 44, -1, -1, 49, 48,
        62, 60, 59, 52, 53, 56, 55, -1, 57, 58, -1, -1, 61, -1, -1, -1}},
  };
  for (std::size_t g = 0; g < goldens.size(); ++g) {
    const Perm got = lis_kernel(goldens[g].perm, default_seaweed_engine());
    const Perm want = Perm::from_rows(
        goldens[g].kernel, static_cast<std::int64_t>(goldens[g].perm.size()));
    ASSERT_EQ(got, want) << "golden " << g;
  }
}

// >1000 random permutations across sizes: the level-order builder must be
// bit-identical to the retained depth-first reference (which still issues
// one engine call per merge).
TEST(LisKernelLevelOrder, BitIdenticalToReferenceFuzz) {
  Rng rng(20260729);
  SeaweedEngine engine;
  std::int64_t cases = 0;
  while (cases < 1050) {
    const std::int64_t n = rng.next_in(1, 130);
    const auto p = rng.permutation(n);
    ASSERT_EQ(lis_kernel(p, engine), lis_kernel_reference(p, engine))
        << "case " << cases << " n=" << n;
    ++cases;
  }
  // A few larger sizes so multiple merge levels exceed the base-case
  // cutoff.
  for (const std::int64_t n : {257, 512, 1000}) {
    const auto p = rng.permutation(n);
    ASSERT_EQ(lis_kernel(p, engine), lis_kernel_reference(p, engine))
        << "n=" << n;
  }
}

// Call-structure pin: the level-order builder issues exactly one batched
// engine call per merge level — ceil(log2 n) calls total, vs the
// reference's one call per merge.
TEST(LisKernelLevelOrder, OneBatchedEngineCallPerLevel) {
  Rng rng(2026);
  for (const std::int64_t n : {1, 2, 3, 8, 9, 100, 128, 1000}) {
    SeaweedEngine engine;
    lis_kernel(rng.permutation(n), engine);
    std::int64_t levels = 0;
    while ((std::int64_t{1} << levels) < n) ++levels;  // ceil(log2 n)
    EXPECT_EQ(engine.subunit_batch_calls(), levels) << "n=" << n;
  }
  // A forest shares levels: many inputs still cost one call per global
  // level (the deepest input dominates).
  SeaweedEngine engine;
  std::vector<std::vector<std::int32_t>> perms;
  for (const std::int64_t n : {64, 7, 1, 33}) perms.push_back(rng.permutation(n));
  lis_kernel_batch(perms, engine);
  EXPECT_EQ(engine.subunit_batch_calls(), 6);  // ceil(log2 64)
}

// lis_kernel_batch must match per-input lis_kernel (mixed sizes, including
// empty and single-element inputs), sequentially and with a striping pool.
TEST(LisKernelLevelOrder, BatchMatchesPerInput) {
  Rng rng(424242);
  std::vector<std::vector<std::int32_t>> perms;
  for (const std::int64_t n : {17, 0, 1, 64, 5, 33, 128, 2, 0, 90}) {
    perms.push_back(rng.permutation(n));
  }
  const auto batch = lis_kernel_batch(perms, default_seaweed_engine());
  ASSERT_EQ(batch.size(), perms.size());
  for (std::size_t t = 0; t < perms.size(); ++t) {
    ASSERT_EQ(batch[t], lis_kernel(perms[t], default_seaweed_engine()))
        << "input " << t;
  }
  EXPECT_TRUE(lis_kernel_batch({}, default_seaweed_engine()).empty());
  for (const unsigned threads : {2u, 4u}) {
    ThreadPool pool(threads);
    SeaweedEngine striped({.parallel_grain = 64, .pool = &pool});
    ASSERT_EQ(lis_kernel_batch(perms, striped), batch)
        << "threads=" << threads;
  }
}

TEST(LisKernel, SortedAndReversedExtremes) {
  std::vector<std::int32_t> sorted(50), rev(50);
  for (int i = 0; i < 50; ++i) {
    sorted[static_cast<std::size_t>(i)] = i;
    rev[static_cast<std::size_t>(i)] = 49 - i;
  }
  // LIS = n everywhere.
  EXPECT_EQ(lis_kernel(sorted, default_seaweed_engine()).point_count(), 0);
  EXPECT_EQ(lis_from_kernel(lis_kernel(rev, default_seaweed_engine())), 1);
}

mpc::MpcConfig cfg_of(std::int64_t machines) {
  mpc::MpcConfig cfg;
  cfg.num_machines = machines;
  cfg.space_words = 1 << 22;
  cfg.strict = false;
  cfg.threads = 2;
  return cfg;
}

struct MpcLisCase {
  std::int64_t n, m, classes;
  std::uint64_t seed;
};

class MpcLisSweep : public ::testing::TestWithParam<MpcLisCase> {};

TEST_P(MpcLisSweep, MatchesPatienceAndKernelOracle) {
  const auto& p = GetParam();
  mpc::Cluster cluster(cfg_of(p.m));
  Rng rng(p.seed);
  std::vector<std::int64_t> seq(static_cast<std::size_t>(p.n));
  for (auto& x : seq) x = rng.next_in(0, p.n);  // duplicates allowed

  MpcLisOptions opt;
  opt.leaf_classes = p.classes;
  opt.multiply.split_h = 2;
  const auto res = mpc_lis(cluster, seq, opt);
  ASSERT_EQ(res.lis, lis_length(seq));
  EXPECT_GT(res.rounds, 0);

  // Semi-local: windows answered from the MPC kernel must match patience.
  for (int trial = 0; trial < 15; ++trial) {
    const std::int64_t l = rng.next_in(0, p.n - 1);
    const std::int64_t r = rng.next_in(l, p.n - 1);
    ASSERT_EQ(kernel_window_lis(res.kernel, l, r), lis_window(seq, l, r))
        << "l=" << l << " r=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpcLisSweep,
    ::testing::Values(MpcLisCase{16, 2, 2, 1}, MpcLisCase{32, 4, 4, 2},
                      MpcLisCase{64, 4, 8, 3}, MpcLisCase{100, 5, 4, 4},
                      MpcLisCase{128, 8, 8, 5}, MpcLisCase{200, 8, 16, 6},
                      MpcLisCase{256, 16, 16, 7}, MpcLisCase{333, 8, 8, 8}),
    [](const auto& tpi) {
      // Appends, not an operator+ chain: the chain trips a gcc-12
      // -Wrestrict false positive (PR105651) once inlined at -O3.
      std::string name;
      name += "n";
      name += std::to_string(tpi.param.n);
      name += "_m";
      name += std::to_string(tpi.param.m);
      name += "_c";
      name += std::to_string(tpi.param.classes);
      return name;
    });

TEST(MpcLis, AdversarialShapes) {
  mpc::Cluster cluster(cfg_of(4));
  // Sorted, reversed, sawtooth, constant.
  std::vector<std::vector<std::int64_t>> inputs;
  std::vector<std::int64_t> sorted(64), rev(64), saw(64), flat(64, 7);
  for (int i = 0; i < 64; ++i) {
    sorted[static_cast<std::size_t>(i)] = i;
    rev[static_cast<std::size_t>(i)] = 64 - i;
    saw[static_cast<std::size_t>(i)] = i % 8;
  }
  inputs = {sorted, rev, saw, flat};
  for (const auto& seq : inputs) {
    const auto res = mpc_lis(cluster, seq);
    ASSERT_EQ(res.lis, lis_length(seq));
  }
}

TEST(MpcLis, RoundsGrowLogarithmically) {
  // Theorem 1.3 shape check: rounds scale with the number of merge levels
  // (log n), not with n. Quadrupling n with fixed classes-per-machine adds
  // ~2 levels of merging.
  std::vector<std::int64_t> rounds;
  for (std::int64_t n : {64, 256, 1024}) {
    mpc::Cluster cluster(cfg_of(8));
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<std::int64_t> seq(static_cast<std::size_t>(n));
    for (auto& x : seq) x = rng.next_in(0, 1 << 30);
    MpcLisOptions opt;
    opt.leaf_classes = n / 16;  // leaf size fixed => levels grow with log n
    const auto res = mpc_lis(cluster, seq, opt);
    ASSERT_EQ(res.lis, lis_length(seq));
    rounds.push_back(res.rounds);
  }
  EXPECT_LT(rounds[0], rounds[1]);
  EXPECT_LT(rounds[1], rounds[2]);
  // Sub-linear growth: quadrupling n should nowhere near quadruple rounds.
  EXPECT_LT(rounds[2], rounds[0] * 4);
}

}  // namespace
}  // namespace monge::lis
