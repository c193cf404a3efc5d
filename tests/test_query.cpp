// Oracle-differential battery for query::SemiLocalIndex and its API-tier
// surface (BuildIndexRequest / WindowLisQuery / SubstringLcsQuery on the
// Solver, plus SolverService handle caching).
//
// The pinning strategy: every window answer the index serves is
// bit-compared against lis::lis_window_batch — the per-window patience
// oracle, itself the reference kernel_window_lis_batch has always been
// fuzzed against — across five sequence families (random, sorted,
// reverse, duplicate-heavy, near-similar), >= 1000 fuzzed windows per
// (family, seed), degenerate shapes included. Substring-LCS answers pin
// against lcs::lcs_dp on the literal substring. A dedicated shuffled
// ctest entry (monge_tests_query_shuffled_stress, CMakeLists.txt) repeats
// the whole file in randomized order, mirroring monge_tests_shuffled_stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <utility>
#include <vector>

#include "api/service.h"
#include "api/solver.h"
#include "lcs/hunt_szymanski.h"
#include "lis/kernel.h"
#include "lis/sequential.h"
#include "oracles/oracles.h"
#include "query/semilocal_index.h"
#include "util/error.h"
#include "util/rng.h"

namespace monge {
namespace {

using query::SemiLocalIndex;
using Windows = std::vector<std::pair<std::int64_t, std::int64_t>>;

// ---------------------------------------------------------------------------
// Sequence families. Each takes the target length and a seeded Rng; the
// battery runs every family through the same fuzz harness.
// ---------------------------------------------------------------------------

std::vector<std::int64_t> family_random(std::int64_t n, Rng& rng) {
  std::vector<std::int64_t> seq(static_cast<std::size_t>(n));
  for (auto& x : seq) x = rng.next_in(-1000, 1000);
  return seq;
}

std::vector<std::int64_t> family_sorted(std::int64_t n, Rng& rng) {
  std::vector<std::int64_t> seq(static_cast<std::size_t>(n));
  std::int64_t v = rng.next_in(-50, 50);
  for (auto& x : seq) {
    v += rng.next_in(0, 3);  // non-strict ascent: duplicates appear
    x = v;
  }
  return seq;
}

std::vector<std::int64_t> family_reverse(std::int64_t n, Rng& rng) {
  auto seq = family_sorted(n, rng);
  std::reverse(seq.begin(), seq.end());
  return seq;
}

std::vector<std::int64_t> family_duplicate_heavy(std::int64_t n, Rng& rng) {
  std::vector<std::int64_t> seq(static_cast<std::size_t>(n));
  for (auto& x : seq) x = rng.next_in(0, 3);  // 4-letter alphabet
  return seq;
}

/// Mostly-sorted with a few transpositions and value nudges — the
/// "near-similar sequences" regime real indexing workloads live in.
std::vector<std::int64_t> family_near_similar(std::int64_t n, Rng& rng) {
  std::vector<std::int64_t> seq(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) seq[static_cast<std::size_t>(i)] = i;
  for (std::int64_t k = 0; k < n / 16 + 1; ++k) {
    const auto a = static_cast<std::size_t>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    const auto b = static_cast<std::size_t>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    std::swap(seq[a], seq[b]);
  }
  for (std::int64_t k = 0; k < n / 8 + 1; ++k) {
    seq[static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(n)))] +=
        rng.next_in(-2, 2);
  }
  return seq;
}

struct Family {
  const char* name;
  std::vector<std::int64_t> (*make)(std::int64_t, Rng&);
};

constexpr Family kFamilies[] = {
    {"random", family_random},
    {"sorted", family_sorted},
    {"reverse", family_reverse},
    {"duplicate-heavy", family_duplicate_heavy},
    {"near-similar", family_near_similar},
};

/// Fuzzed window mix: uniform spans, tiny windows, singletons, full range,
/// prefixes/suffixes, and legitimate empty (l > r) windows — including
/// out-of-range endpoints, which the contract says still answer 0.
Windows fuzz_windows(std::int64_t n, std::int64_t count, Rng& rng) {
  Windows windows;
  windows.reserve(static_cast<std::size_t>(count));
  for (std::int64_t q = 0; q < count; ++q) {
    switch (rng.next_below(8)) {
      case 0: {  // empty, possibly wildly out of range
        const std::int64_t l = rng.next_in(-5, n + 5);
        windows.emplace_back(l, l - 1 - rng.next_in(0, 7));
        break;
      }
      case 1: {  // singleton
        const std::int64_t l = n == 0 ? 0 : rng.next_in(0, n - 1);
        if (n == 0) {
          windows.emplace_back(0, -1);
        } else {
          windows.emplace_back(l, l);
        }
        break;
      }
      case 2:  // full range
        windows.emplace_back(0, n - 1);
        break;
      case 3: {  // prefix / suffix
        if (n == 0) {
          windows.emplace_back(0, -1);
        } else if (rng.next_below(2) == 0) {
          windows.emplace_back(0, rng.next_in(0, n - 1));
        } else {
          windows.emplace_back(rng.next_in(0, n - 1), n - 1);
        }
        break;
      }
      default: {  // uniform span
        if (n == 0) {
          windows.emplace_back(0, -1);
        } else {
          std::int64_t a = rng.next_in(0, n - 1);
          std::int64_t b = rng.next_in(0, n - 1);
          if (a > b) std::swap(a, b);
          windows.emplace_back(a, b);
        }
        break;
      }
    }
  }
  return windows;
}

// ---------------------------------------------------------------------------
// The oracle-differential battery.
// ---------------------------------------------------------------------------

TEST(SemiLocalIndex, WindowFuzzAgainstPatienceOracleAllFamilies) {
  // >= 1000 fuzzed windows per (family, seed): 5 families x 2 seeds x 1000.
  constexpr std::int64_t kN = 257;  // non-power-of-two exercises tree padding
  constexpr std::int64_t kWindowsPerSeed = 1000;
  for (const Family& family : kFamilies) {
    for (const std::uint64_t seed : {11u, 97u}) {
      Rng rng(seed);
      const auto seq = family.make(kN, rng);
      const SemiLocalIndex index = SemiLocalIndex::from_sequence(seq);
      const Windows windows = fuzz_windows(kN, kWindowsPerSeed, rng);
      const auto got = index.window_lis_batch(windows);
      const auto want = lis::lis_window_batch(seq, windows);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t q = 0; q < windows.size(); ++q) {
        ASSERT_EQ(got[q], want[q])
            << family.name << " seed=" << seed << " window=["
            << windows[q].first << ", " << windows[q].second << "]";
      }
      // The offline kernel sweep answers the same batch identically.
      const Perm kernel = lis::lis_kernel(lis::rank_reduce_strict(seq),
                                          default_seaweed_engine());
      EXPECT_EQ(lis::kernel_window_lis_batch(kernel, windows), want)
          << family.name << " seed=" << seed;
    }
  }
}

TEST(SemiLocalIndex, LargeWindowFuzzAgainstKernelSweep) {
  // At sizes where the per-window patience oracle is too slow, pin against
  // kernel_window_lis_batch (itself oracle-pinned in test_lis.cpp) on the
  // SAME kernel the index persisted.
  constexpr std::int64_t kN = 4096;
  for (const Family& family : kFamilies) {
    Rng rng(1234);
    const auto seq = family.make(kN, rng);
    const Perm kernel = lis::lis_kernel(lis::rank_reduce_strict(seq),
                                        default_seaweed_engine());
    const SemiLocalIndex index = SemiLocalIndex::from_kernel(kernel);
    const Windows windows = fuzz_windows(kN, 2000, rng);
    EXPECT_EQ(index.window_lis_batch(windows),
              lis::kernel_window_lis_batch(kernel, windows))
        << family.name;
  }
}

TEST(SemiLocalIndex, DegenerateWindows) {
  const std::vector<std::int64_t> seq{5, 1, 4, 4, 2, 7};
  const SemiLocalIndex index = SemiLocalIndex::from_sequence(seq);
  EXPECT_EQ(index.size(), 6);
  // Empty windows answer 0 even with endpoints far outside [0, n).
  EXPECT_EQ(index.window_lis(0, -1), 0);
  EXPECT_EQ(index.window_lis(3, 2), 0);
  EXPECT_EQ(index.window_lis(100, -100), 0);
  // Singletons answer 1, the full range the global LIS.
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(index.window_lis(i, i), 1);
  EXPECT_EQ(index.window_lis(0, 5), 3);  // 1, 4|2, 7  (strict LIS)
  EXPECT_EQ(index.full_answer(), 3);
  // Non-empty out-of-range windows are contract violations.
  EXPECT_THROW(index.window_lis(-1, 2), std::logic_error);
  EXPECT_THROW(index.window_lis(0, 6), std::logic_error);
}

TEST(SemiLocalIndex, EmptyAndSingletonSequences) {
  const SemiLocalIndex empty = SemiLocalIndex::from_sequence({});
  EXPECT_EQ(empty.size(), 0);
  EXPECT_EQ(empty.point_count(), 0);
  EXPECT_EQ(empty.full_answer(), 0);
  EXPECT_EQ(empty.window_lis(0, -1), 0);
  EXPECT_EQ(empty.window_lis(5, 1), 0);
  EXPECT_THROW(empty.window_lis(0, 0), std::logic_error);

  const std::vector<std::int64_t> one{42};
  const SemiLocalIndex single = SemiLocalIndex::from_sequence(one);
  EXPECT_EQ(single.size(), 1);
  EXPECT_EQ(single.window_lis(0, 0), 1);
  EXPECT_EQ(single.full_answer(), 1);
  EXPECT_EQ(single.window_lis(1, 0), 0);
  EXPECT_THROW(single.window_lis(0, 1), std::logic_error);
}

TEST(SemiLocalIndex, MatchesKernelWindowLisPointwise) {
  Rng rng(7);
  const auto seq = family_random(129, rng);
  const Perm kernel = lis::lis_kernel(lis::rank_reduce_strict(seq),
                                      default_seaweed_engine());
  const SemiLocalIndex index = SemiLocalIndex::from_kernel(kernel);
  for (std::int64_t l = 0; l < 129; l += 7) {
    for (std::int64_t r = l; r < 129; r += 5) {
      ASSERT_EQ(index.window_lis(l, r), lis::kernel_window_lis(kernel, l, r))
          << "[" << l << ", " << r << "]";
    }
  }
}

TEST(SemiLocalIndex, FromKernelRejectsNonSquare) {
  Rng rng(3);
  const Perm rect = Perm::random_sub(6, 9, 4, rng);
  EXPECT_THROW(SemiLocalIndex::from_kernel(rect), std::logic_error);
}

TEST(SemiLocalIndex, AccessorsAndUniqueIds) {
  Rng rng(5);
  const auto seq = family_random(64, rng);
  const SemiLocalIndex a = SemiLocalIndex::from_sequence(seq);
  const SemiLocalIndex b = SemiLocalIndex::from_sequence(seq);
  EXPECT_NE(a.id(), 0u);
  EXPECT_NE(a.id(), b.id());  // process-unique, never reused
  EXPECT_FALSE(a.lcs_mode());
  EXPECT_EQ(a.source_rows(), 0);
  EXPECT_EQ(a.point_count(), 64 - a.full_answer());
  EXPECT_GT(a.memory_bytes(), 0);
}

// ---------------------------------------------------------------------------
// Substring-LCS mode.
// ---------------------------------------------------------------------------

TEST(SemiLocalIndex, SubstringLcsExhaustiveAgainstDp) {
  for (const std::uint64_t seed : {2u, 19u, 71u}) {
    Rng rng(seed);
    const std::int64_t ns = rng.next_in(20, 40);
    const std::int64_t nt = rng.next_in(20, 40);
    const auto s = family_duplicate_heavy(ns, rng);  // dense matches
    const auto t = family_duplicate_heavy(nt, rng);
    const SemiLocalIndex index = SemiLocalIndex::from_lcs_pair(s, t);
    EXPECT_TRUE(index.lcs_mode());
    EXPECT_EQ(index.source_rows(), ns);
    for (std::int64_t i = 0; i < ns; ++i) {
      for (std::int64_t j = i; j < ns; ++j) {
        const std::vector<std::int64_t> sub(
            s.begin() + static_cast<std::ptrdiff_t>(i),
            s.begin() + static_cast<std::ptrdiff_t>(j) + 1);
        ASSERT_EQ(index.substring_lcs(i, j), lcs::lcs_dp(sub, t))
            << "seed=" << seed << " s[" << i << ".." << j << "]";
      }
    }
    // Full range is the O(1) answer too.
    EXPECT_EQ(index.substring_lcs(0, ns - 1), index.full_answer());
    EXPECT_EQ(index.full_answer(), lcs::lcs_dp(s, t));
  }
}

TEST(SemiLocalIndex, SubstringLcsSparseAndNoMatchAlphabets) {
  Rng rng(23);
  // Disjoint alphabets: zero matches, every substring answers 0.
  const auto s = family_random(30, rng);  // values in [-1000, 1000]
  std::vector<std::int64_t> t(25);
  for (auto& x : t) x = rng.next_in(5000, 6000);
  t[3] = 5500;  // guaranteed shared symbol for the second half below
  const SemiLocalIndex none = SemiLocalIndex::from_lcs_pair(s, t);
  EXPECT_EQ(none.size(), 0);
  EXPECT_EQ(none.substring_lcs(0, 29), 0);
  EXPECT_EQ(none.substring_lcs(4, 17), 0);
  EXPECT_EQ(none.full_answer(), 0);

  // One shared symbol: LCS is 1 exactly when the substring contains it.
  std::vector<std::int64_t> s2(11, -7);
  for (std::size_t i = 0; i < s2.size(); ++i) {
    s2[i] = i == 6 ? 5500 : -7 - static_cast<std::int64_t>(i);
  }
  const SemiLocalIndex one = SemiLocalIndex::from_lcs_pair(s2, t);
  for (std::int64_t i = 0; i < 11; ++i) {
    for (std::int64_t j = i; j < 11; ++j) {
      EXPECT_EQ(one.substring_lcs(i, j), (i <= 6 && 6 <= j) ? 1 : 0);
    }
  }
}

TEST(SemiLocalIndex, SubstringLcsDegenerateAndModeErrors) {
  Rng rng(31);
  const auto s = family_duplicate_heavy(12, rng);
  const auto t = family_duplicate_heavy(15, rng);
  const SemiLocalIndex index = SemiLocalIndex::from_lcs_pair(s, t);
  EXPECT_EQ(index.substring_lcs(5, 4), 0);    // empty substring
  EXPECT_EQ(index.substring_lcs(50, -3), 0);  // empty, out of range
  EXPECT_THROW(index.substring_lcs(-1, 4), std::logic_error);
  EXPECT_THROW(index.substring_lcs(0, 12), std::logic_error);

  const SemiLocalIndex lis_index = SemiLocalIndex::from_sequence(s);
  EXPECT_THROW(lis_index.substring_lcs(0, 3), std::logic_error);

  // from_lcs_kernel validates the row-start table shape.
  const Perm kernel =
      lis::lis_kernel(lis::rank_reduce_strict(s), default_seaweed_engine());
  EXPECT_THROW(SemiLocalIndex::from_lcs_kernel(kernel, {}), std::logic_error);
  EXPECT_THROW(SemiLocalIndex::from_lcs_kernel(kernel, {0, 3}),
               std::logic_error);
  EXPECT_THROW(SemiLocalIndex::from_lcs_kernel(
                   kernel, {0, 9, 5, kernel.rows()}),
               std::logic_error);
}

TEST(SemiLocalIndex, SubstringLcsBatchMatchesPointwise) {
  Rng rng(47);
  const auto s = family_duplicate_heavy(35, rng);
  const auto t = family_duplicate_heavy(28, rng);
  const SemiLocalIndex index = SemiLocalIndex::from_lcs_pair(s, t);
  Windows subs = fuzz_windows(35, 300, rng);
  const auto got = index.substring_lcs_batch(subs);
  ASSERT_EQ(got.size(), subs.size());
  for (std::size_t q = 0; q < subs.size(); ++q) {
    EXPECT_EQ(got[q], index.substring_lcs(subs[q].first, subs[q].second));
  }
}

// ---------------------------------------------------------------------------
// Solver surface: BuildIndexRequest / WindowLisQuery / SubstringLcsQuery.
// ---------------------------------------------------------------------------

TEST(SolverQuery, BuildAndQueryBitIdenticalAcrossBackends) {
  Rng rng(61);
  const auto seq = family_random(160, rng);
  const Windows windows = fuzz_windows(160, 400, rng);
  const auto want = lis::lis_window_batch(seq, windows);

  for (const SolverBackend backend :
       {SolverBackend::kSequential, SolverBackend::kMpcSim}) {
    Solver solver({.backend = backend});
    const BuildIndexResult built = solver.solve(BuildIndexRequest{
        .kind = BuildIndexRequest::Kind::kWindowLis, .seq = seq});
    ASSERT_TRUE(built.handle.valid());
    EXPECT_EQ(built.n, 160);
    EXPECT_EQ(built.full, lis::lis_length(seq));
    EXPECT_EQ(built.rounds > 0, backend == SolverBackend::kMpcSim);
    const WindowLisResult res =
        solver.solve(WindowLisQuery{built.handle, windows});
    EXPECT_EQ(res.lis, want) << solver_backend_name(backend);
  }
}

TEST(SolverQuery, SubstringLcsAcrossBackends) {
  Rng rng(67);
  const auto s = family_duplicate_heavy(30, rng);
  const auto t = family_duplicate_heavy(24, rng);
  Windows subs;
  for (std::int64_t i = 0; i < 30; i += 3) {
    for (std::int64_t j = i; j < 30; j += 4) subs.emplace_back(i, j);
  }
  std::vector<std::int64_t> want;
  for (const auto& [i, j] : subs) {
    const std::vector<std::int64_t> sub(
        s.begin() + static_cast<std::ptrdiff_t>(i),
        s.begin() + static_cast<std::ptrdiff_t>(j) + 1);
    want.push_back(lcs::lcs_dp(sub, t));
  }
  for (const SolverBackend backend :
       {SolverBackend::kSequential, SolverBackend::kMpcSim}) {
    Solver solver({.backend = backend});
    const BuildIndexResult built = solver.solve(BuildIndexRequest{
        .kind = BuildIndexRequest::Kind::kSubstringLcs, .seq = s, .t = t});
    ASSERT_TRUE(built.handle.valid());
    EXPECT_EQ(built.full, lcs::lcs_dp(s, t));
    const SubstringLcsResult res =
        solver.solve(SubstringLcsQuery{built.handle, subs});
    EXPECT_EQ(res.lcs, want) << solver_backend_name(backend);
  }
}

TEST(SolverQuery, HandlesOutliveTheBuildingSolver) {
  QueryHandle handle;
  const std::vector<std::int64_t> seq{3, 1, 4, 1, 5, 9, 2, 6};
  {
    Solver solver;
    handle = solver.solve(BuildIndexRequest{.seq = seq}).handle;
  }  // the Solver (and its engine arena) are gone; the index is not
  Solver other;
  const WindowLisResult res =
      other.solve(WindowLisQuery{handle, {{0, 7}, {2, 5}}});
  EXPECT_EQ(res.lis, (std::vector<std::int64_t>{4, 3}));
}

TEST(SolverQuery, InvalidRequestsThrowTaxonomyErrors) {
  Solver solver;
  // t alongside kWindowLis is a contract violation, not silently ignored.
  EXPECT_THROW(solver.solve(BuildIndexRequest{
                   .kind = BuildIndexRequest::Kind::kWindowLis,
                   .seq = {1, 2},
                   .t = {3}}),
               InvalidRequestError);
  EXPECT_THROW(solver.solve(BuildIndexRequest{
                   .kind = static_cast<BuildIndexRequest::Kind>(9)}),
               InvalidRequestError);
  // Empty handles and mode mismatches.
  EXPECT_THROW(solver.solve(WindowLisQuery{{}, {{0, 0}}}),
               InvalidRequestError);
  EXPECT_THROW(solver.solve(SubstringLcsQuery{{}, {{0, 0}}}),
               InvalidRequestError);
  const QueryHandle lis_handle =
      solver.solve(BuildIndexRequest{.seq = {5, 2, 8}}).handle;
  EXPECT_THROW(solver.solve(SubstringLcsQuery{lis_handle, {{0, 1}}}),
               InvalidRequestError);
  const QueryHandle lcs_handle =
      solver
          .solve(BuildIndexRequest{
              .kind = BuildIndexRequest::Kind::kSubstringLcs,
              .seq = {5, 2, 8},
              .t = {2, 8}})
          .handle;
  EXPECT_THROW(solver.solve(WindowLisQuery{lcs_handle, {{0, 1}}}),
               InvalidRequestError);

  // try_solve classifies the same failures instead of throwing.
  const auto res = solver.try_solve(WindowLisQuery{{}, {{0, 0}}});
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.report.status, SolveStatus::kInvalidRequest);
  // Out-of-range windows are MONGE_CHECK logic errors -> kInvalidRequest.
  const auto oob = solver.try_solve(WindowLisQuery{lis_handle, {{0, 99}}});
  EXPECT_EQ(oob.report.status, SolveStatus::kInvalidRequest);
}

// ---------------------------------------------------------------------------
// Service surface: handles in the digest-keyed cache, queries on the pool.
// ---------------------------------------------------------------------------

TEST(QueryService, IdenticalBuildsShareOneIndexThroughTheCache) {
  Rng rng(83);
  const auto seq = family_random(96, rng);
  SolverService service({.workers = 2});
  const BuildIndexRequest req{.seq = seq};
  const BuildIndexResult first = service.submit(req).get();
  const BuildIndexResult second = service.submit(req).get();
  // The second build is served from the digest-keyed cache: same shared
  // index object, not a rebuild.
  EXPECT_EQ(first.handle.id(), second.handle.id());
  EXPECT_EQ(first.handle.index.get(), second.handle.index.get());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.solves, 1);
}

TEST(QueryService, EndToEndMixedQueriesMatchOracle) {
  Rng rng(89);
  const auto seq = family_near_similar(200, rng);
  const auto s = family_duplicate_heavy(26, rng);
  const auto t = family_duplicate_heavy(22, rng);
  SolverService service({.workers = 2});

  const QueryHandle lis_handle =
      service.submit(BuildIndexRequest{.seq = seq}).get().handle;
  const QueryHandle lcs_handle =
      service
          .submit(BuildIndexRequest{
              .kind = BuildIndexRequest::Kind::kSubstringLcs,
              .seq = s,
              .t = t})
          .get()
          .handle;

  // Many concurrent query batches against both handles.
  std::vector<std::future<WindowLisResult>> lis_futs;
  std::vector<Windows> lis_batches;
  std::vector<std::future<SubstringLcsResult>> lcs_futs;
  std::vector<Windows> lcs_batches;
  for (int k = 0; k < 8; ++k) {
    lis_batches.push_back(fuzz_windows(200, 50, rng));
    lis_futs.push_back(
        service.submit(WindowLisQuery{lis_handle, lis_batches.back()}));
    lcs_batches.push_back(fuzz_windows(26, 20, rng));
    lcs_futs.push_back(
        service.submit(SubstringLcsQuery{lcs_handle, lcs_batches.back()}));
  }
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(lis_futs[static_cast<std::size_t>(k)].get().lis,
              lis::lis_window_batch(seq,
                                    lis_batches[static_cast<std::size_t>(k)]));
    const auto got = lcs_futs[static_cast<std::size_t>(k)].get().lcs;
    const auto& batch = lcs_batches[static_cast<std::size_t>(k)];
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
      const auto [i, j] = batch[q];
      if (i > j) {
        EXPECT_EQ(got[q], 0);
      } else {
        const std::vector<std::int64_t> sub(
            s.begin() + static_cast<std::ptrdiff_t>(i),
            s.begin() + static_cast<std::ptrdiff_t>(j) + 1);
        EXPECT_EQ(got[q], lcs::lcs_dp(sub, t));
      }
    }
  }
}

TEST(QueryService, RepeatedQueryBatchesHitTheResultCache) {
  Rng rng(101);
  const auto seq = family_random(80, rng);
  SolverService service({.workers = 1});
  const QueryHandle handle =
      service.submit(BuildIndexRequest{.seq = seq}).get().handle;
  const Windows windows = fuzz_windows(80, 64, rng);

  auto first = service.try_submit(WindowLisQuery{handle, windows});
  ASSERT_TRUE(first.admitted());
  const auto r1 = first.future.get();
  EXPECT_FALSE(r1.report.cached);
  auto second = service.try_submit(WindowLisQuery{handle, windows});
  ASSERT_TRUE(second.admitted());
  const auto r2 = second.future.get();
  EXPECT_TRUE(r2.report.cached);
  EXPECT_EQ(r1.value.lis, r2.value.lis);
}

TEST(QueryService, TrySubmitReportsInvalidHandle) {
  SolverService service({.workers = 1});
  auto sub = service.try_submit(WindowLisQuery{{}, {{0, 0}}});
  ASSERT_TRUE(sub.admitted());
  const auto res = sub.future.get();
  EXPECT_EQ(res.report.status, SolveStatus::kInvalidRequest);
}

}  // namespace
}  // namespace monge
