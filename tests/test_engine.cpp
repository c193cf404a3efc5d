#include "monge/engine.h"

#include <gtest/gtest.h>

#include "lis/kernel.h"
#include "monge/subperm.h"
#include "oracles/distribution.h"
#include "oracles/oracles.h"
#include "testing.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace monge {
namespace {

using testing::all_permutations;

std::vector<std::int32_t> random_raw_perm(std::int64_t n, Rng& rng) {
  return rng.permutation(n);
}

TEST(SeaweedEngine, ExhaustiveSmallPermutations) {
  for (const std::int64_t cutoff : {1, 2, 3, 8}) {
    SeaweedEngine engine({.base_case_cutoff = cutoff});
    for (int n = 1; n <= 5; ++n) {
      const auto perms = all_permutations(n);
      for (const auto& pa : perms) {
        for (const auto& pb : perms) {
          const Perm a = Perm::from_rows(pa, n);
          const Perm b = Perm::from_rows(pb, n);
          ASSERT_EQ(engine.multiply(a, b), multiply_naive(a, b))
              << "n=" << n << " cutoff=" << cutoff;
        }
      }
    }
  }
}

// Randomized equivalence fuzz across sizes straddling the base-case cutoff:
// the engine must agree with the naive oracle and be bit-identical to the
// legacy recursion for every cutoff choice.
TEST(SeaweedEngine, EquivalenceFuzzAcrossCutoffs) {
  Rng rng(20240518);
  for (const std::int64_t cutoff : {1, 4, 16, 32, 64}) {
    SeaweedEngine engine({.base_case_cutoff = cutoff});
    for (const std::int64_t n :
         {2, 3, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129}) {
      for (int rep = 0; rep < 3; ++rep) {
        const auto a = random_raw_perm(n, rng);
        const auto b = random_raw_perm(n, rng);
        const auto got = testing::raw_product(engine, a, b);
        const auto ref = seaweed_multiply_reference_raw(a, b);
        ASSERT_EQ(got, ref) << "n=" << n << " cutoff=" << cutoff;
        const Perm pa = Perm::from_rows(a, n);
        const Perm pb = Perm::from_rows(b, n);
        ASSERT_EQ(Perm::from_rows(got, n), multiply_naive(pa, pb))
            << "n=" << n << " cutoff=" << cutoff;
      }
    }
  }
}

TEST(SeaweedEngine, BitIdenticalToReferenceLargerSizes) {
  Rng rng(7);
  SeaweedEngine engine;
  for (const std::int64_t n : {255, 256, 257, 777, 1024, 2048}) {
    const auto a = random_raw_perm(n, rng);
    const auto b = random_raw_perm(n, rng);
    ASSERT_EQ(testing::raw_product(engine, a, b),
              seaweed_multiply_reference_raw(a, b))
        << "n=" << n;
  }
}

// Sizes 0 and 1 need no scratch, so a fresh engine's arena stays empty; and
// single-pair calls are batches of one internally but never count as
// batched subunit calls.
TEST(SeaweedEngine, EmptyAndTiny) {
  SeaweedEngine engine;
  EXPECT_TRUE(testing::raw_product(engine, {}, {}).empty());
  EXPECT_EQ(testing::raw_product(engine, std::vector<std::int32_t>{0},
                                 std::vector<std::int32_t>{0}),
            (std::vector<std::int32_t>{0}));
  EXPECT_EQ(engine.arena_capacity(), 0u);
  const std::vector<std::int32_t> ident{0, 1};
  EXPECT_EQ(testing::raw_product(engine, ident, ident), ident);
  EXPECT_EQ(testing::subunit_raw_product(engine, ident, ident, 2), ident);
  EXPECT_EQ(engine.subunit_batch_calls(), 0);
  const std::vector<SubunitPairView> pairs{{ident, ident, 2}};
  EXPECT_EQ(testing::subunit_raw_batch(engine, pairs).front(), ident);
  EXPECT_EQ(engine.subunit_batch_calls(), 1);
}

// Knobs are validated at construction — out-of-range values throw instead
// of being silently rewritten, so options() always reports exactly what
// the caller requested.
TEST(SeaweedEngine, RejectsOutOfRangeOptions) {
  EXPECT_THROW(SeaweedEngine({.base_case_cutoff = 0}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.base_case_cutoff = -5}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.base_case_cutoff = 257}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.base_case_cutoff = 1 << 20}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.parallel_grain = 1}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.parallel_grain = 0}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.parallel_grain = -1}), std::logic_error);
  // Boundary values construct, and options() echoes them verbatim.
  const SeaweedEngine lo({.base_case_cutoff = 1, .parallel_grain = 2});
  EXPECT_EQ(lo.options().base_case_cutoff, 1);
  EXPECT_EQ(lo.options().parallel_grain, 2);
  const SeaweedEngine hi({.base_case_cutoff = 256});
  EXPECT_EQ(hi.options().base_case_cutoff, 256);
}

// Inputs beyond kSeaweedEngineMaxN = 2^30 would overflow the packed
// (coord << 1) | color int32 representation; every public entry point must
// reject them with a clear error up front. Sizes are validated before any
// element is touched, so spans with an oversize extent over a dummy
// element never get dereferenced. (Materializing 4 GiB views instead is
// not an option here; the fabricated extent technically violates the
// span-constructor range precondition, which no shipping standard library
// can or does check — if one ever grows full bounds metadata, swap these
// for allocation-backed views.)
TEST(SeaweedEngine, RejectsOversizeInputs) {
  SeaweedEngine engine;
  const auto huge =
      static_cast<std::size_t>(kSeaweedEngineMaxN) + 1;
  std::int32_t dummy = 0;
  const std::span<const std::int32_t> big(&dummy, huge);
  std::span<std::int32_t> big_out(&dummy, huge);
  EXPECT_THROW(engine.multiply_into(big, big, big_out), std::logic_error);
  const std::vector<PermPairView> pairs{{big, big}};
  const std::vector<std::span<std::int32_t>> outs{big_out};
  EXPECT_THROW(engine.multiply_batch_into(pairs, outs), std::logic_error);
  // Subunit paths: every dimension is guarded, including b_cols.
  const std::vector<std::int32_t> a{0, 1};
  const std::vector<std::int32_t> b{0, 1};
  std::vector<std::int32_t> out(2);
  EXPECT_THROW(
      engine.subunit_multiply_into(a, b, kSeaweedEngineMaxN + 1, out),
      std::logic_error);
  EXPECT_THROW(engine.subunit_multiply_into(big, b, 2, big_out),
               std::logic_error);
  const std::vector<SubunitPairView> spairs{{a, big, 2}};
  const std::vector<std::span<std::int32_t>> souts{out};
  EXPECT_THROW(engine.subunit_multiply_batch_into(spairs, souts),
               std::logic_error);
  // The engine stays usable after a rejected call.
  EXPECT_EQ(testing::subunit_raw_product(engine, a, b, 2), a);
}

// The arena is sized once: repeating a multiply of the same (or smaller)
// size must not grow the buffer.
TEST(SeaweedEngine, ArenaIsReusedAcrossCalls) {
  Rng rng(11);
  SeaweedEngine engine;
  const auto a = random_raw_perm(1024, rng);
  const auto b = random_raw_perm(1024, rng);
  const auto first = testing::raw_product(engine, a, b);
  const std::size_t cap = engine.arena_capacity();
  EXPECT_GE(cap, engine.arena_bytes_for(1024));
  for (const std::int64_t n : {1024, 512, 100}) {
    const auto pa = random_raw_perm(n, rng);
    const auto pb = random_raw_perm(n, rng);
    ASSERT_EQ(testing::raw_product(engine, pa, pb),
              seaweed_multiply_reference_raw(pa, pb));
  }
  EXPECT_EQ(engine.arena_capacity(), cap);
  EXPECT_EQ(testing::raw_product(engine, a, b), first);
}

TEST(SeaweedEngine, MultiplyIntoWritesCallerBuffer) {
  Rng rng(13);
  SeaweedEngine engine;
  const auto a = random_raw_perm(300, rng);
  const auto b = random_raw_perm(300, rng);
  std::vector<std::int32_t> out(300, kNone);
  engine.multiply_into(a, b, out);
  EXPECT_EQ(out, seaweed_multiply_reference_raw(a, b));
}

// Determinism: the forked execution must produce the exact same bits for
// every thread count and grain size (subproblems write disjoint arena
// slices, so scheduling cannot leak into results).
TEST(SeaweedEngine, DeterministicUnderThreadCounts) {
  Rng rng(42);
  const std::int64_t n = 4096;
  const auto a = random_raw_perm(n, rng);
  const auto b = random_raw_perm(n, rng);
  const auto ref = seaweed_multiply_reference_raw(a, b);
  for (const unsigned threads : {1u, 2u, 3u, 4u}) {
    ThreadPool pool(threads);
    for (const std::int64_t grain : {64, 256, 1024}) {
      SeaweedEngine engine(
          {.parallel_grain = grain, .pool = &pool});
      ASSERT_EQ(testing::raw_product(engine, a, b), ref)
          << "threads=" << threads << " grain=" << grain;
      // Repeat on the warm arena: still identical.
      ASSERT_EQ(testing::raw_product(engine, a, b), ref)
          << "threads=" << threads << " grain=" << grain;
    }
  }
}

// Nested invoke_two from pool workers must not deadlock even when the
// fork tree is much deeper than the worker count.
TEST(ThreadPool, InvokeTwoNestedFork) {
  ThreadPool pool(2);
  std::function<std::int64_t(std::int64_t, std::int64_t)> sum =
      [&](std::int64_t lo, std::int64_t hi) -> std::int64_t {
    if (hi - lo <= 1) return lo;
    const std::int64_t mid = lo + (hi - lo) / 2;
    std::int64_t left = 0, right = 0;
    pool.invoke_two([&] { left = sum(lo, mid); },
                    [&] { right = sum(mid, hi); });
    return left + right;
  };
  EXPECT_EQ(sum(0, 1024), 1024 * 1023 / 2);
}

TEST(ThreadPool, InvokeTwoPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.invoke_two([] { throw std::runtime_error("a"); }, [] {}),
      std::runtime_error);
  EXPECT_THROW(
      pool.invoke_two([] {}, [] { throw std::runtime_error("b"); }),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// multiply_raw_batch: differential fuzz against per-pair multiply_raw.
// ---------------------------------------------------------------------------

// Random batches (including the empty batch) of random mixed sizes
// (including 0 and 1): the batched solve must be bit-identical to solving
// every pair with an independent engine. Covers well over 1000 pairs.
TEST(SeaweedEngineBatch, MatchesPerPairMultiplyFuzz) {
  Rng rng(20260729);
  SeaweedEngine batch_engine;
  SeaweedEngine single_engine;
  std::int64_t cases = 0;
  for (int round = 0; round < 140; ++round) {
    const std::uint64_t batch_size = rng.next_below(17);  // 0..16
    std::vector<std::vector<std::int32_t>> as, bs;
    std::vector<PermPairView> views;
    for (std::uint64_t t = 0; t < batch_size; ++t) {
      // Mixed sizes, biased toward small but straddling the cutoff, with
      // explicit 0/1 degenerate entries sprinkled in.
      const std::uint64_t kind = rng.next_below(8);
      const std::int64_t n = kind == 0   ? 0
                             : kind == 1 ? 1
                                         : rng.next_in(2, 160);
      as.push_back(rng.permutation(n));
      bs.push_back(rng.permutation(n));
    }
    views.reserve(as.size());
    for (std::size_t t = 0; t < as.size(); ++t) {
      views.push_back({as[t], bs[t]});
    }
    const auto got = batch_engine.multiply_raw_batch(views);
    ASSERT_EQ(got.size(), as.size());
    for (std::size_t t = 0; t < as.size(); ++t) {
      ASSERT_EQ(got[t], testing::raw_product(single_engine, as[t], bs[t]))
          << "round=" << round << " pair=" << t << " n=" << as[t].size();
      ++cases;
    }
  }
  EXPECT_GE(cases, 1000);
}

// Striping across a ThreadPool must not change a single bit, for every
// thread count and batch shape; repeated on the warm arena.
TEST(SeaweedEngineBatch, StripedAcrossPoolMatchesSequential) {
  Rng rng(4242);
  std::vector<std::vector<std::int32_t>> as, bs;
  std::vector<PermPairView> views;
  for (const std::int64_t n : {0, 1, 7, 64, 65, 128, 300, 33, 2, 511}) {
    as.push_back(rng.permutation(n));
    bs.push_back(rng.permutation(n));
  }
  for (std::size_t t = 0; t < as.size(); ++t) views.push_back({as[t], bs[t]});
  SeaweedEngine sequential;
  const auto expect = sequential.multiply_raw_batch(views);
  for (const unsigned threads : {2u, 3u, 4u}) {
    ThreadPool pool(threads);
    // A tiny grain also forces forking inside the larger pairs, nesting
    // invoke_two under the batch fork-join.
    SeaweedEngine striped({.parallel_grain = 64, .pool = &pool});
    ASSERT_EQ(striped.multiply_raw_batch(views), expect)
        << "threads=" << threads;
    ASSERT_EQ(striped.multiply_raw_batch(views), expect)
        << "threads=" << threads << " (warm arena)";
  }
}

TEST(SeaweedEngineBatch, EmptyBatchAndDegeneratePairs) {
  SeaweedEngine engine;
  EXPECT_TRUE(engine.multiply_raw_batch({}).empty());
  const std::vector<std::int32_t> empty;
  const std::vector<std::int32_t> one{0};
  std::vector<PermPairView> views{{empty, empty}, {one, one}, {empty, empty}};
  const auto got = engine.multiply_raw_batch(views);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[0].empty());
  EXPECT_EQ(got[1], (std::vector<std::int32_t>{0}));
  EXPECT_TRUE(got[2].empty());
}

// The arena is sized once for the whole batch: re-running the same batch
// (or any batch of no-larger pairs) must not grow the buffer, and the
// sequential batch needs no more scratch than its largest pair.
TEST(SeaweedEngineBatch, ArenaSizedOnceForWholeBatch) {
  Rng rng(31337);
  SeaweedEngine engine;
  std::vector<std::vector<std::int32_t>> as, bs;
  std::vector<PermPairView> views;
  for (const std::int64_t n : {100, 700, 50, 512}) {
    as.push_back(rng.permutation(n));
    bs.push_back(rng.permutation(n));
  }
  for (std::size_t t = 0; t < as.size(); ++t) views.push_back({as[t], bs[t]});
  const auto first = engine.multiply_raw_batch(views);
  const std::size_t cap = engine.arena_capacity();
  EXPECT_GE(cap, engine.arena_bytes_for(700));
  EXPECT_EQ(engine.multiply_raw_batch(views), first);
  EXPECT_EQ(engine.arena_capacity(), cap);
}

// ---------------------------------------------------------------------------
// subunit_multiply_batch_into: differential fuzz against per-call
// subunit_multiply_into over randomized shapes, including empty, size-1 and
// heavily skewed ones.
// ---------------------------------------------------------------------------

struct SubunitBatchInputs {
  std::vector<std::vector<std::int32_t>> as, bs;
  std::vector<std::int64_t> b_cols;
  std::vector<SubunitPairView> views;
};

// One random (ra×n2) ⊡ (n2×cb) shape; `kind` steers degenerate and skewed
// cases so the fuzz hits empty inputs, single elements, thin/fat inner
// dimensions and all-empty-row sub-permutations.
void push_random_subunit_pair(SubunitBatchInputs& in, Rng& rng) {
  std::int64_t ra, n2, cb;
  switch (rng.next_below(8)) {
    case 0:  // an empty side
      ra = 0, n2 = rng.next_in(0, 8), cb = rng.next_in(0, 8);
      break;
    case 1:
      ra = rng.next_in(0, 8), n2 = 0, cb = rng.next_in(0, 8);
      break;
    case 2:
      ra = rng.next_in(0, 8), n2 = rng.next_in(0, 8), cb = 0;
      break;
    case 3:  // single element
      ra = n2 = cb = 1;
      break;
    case 4:  // skewed: thin inner dimension
      ra = rng.next_in(1, 120), n2 = rng.next_in(1, 8),
      cb = rng.next_in(1, 120);
      break;
    case 5:  // skewed: fat inner dimension
      ra = rng.next_in(1, 8), n2 = rng.next_in(1, 120), cb = rng.next_in(1, 8);
      break;
    default:  // generic mixed sizes straddling the base-case cutoff
      ra = rng.next_in(1, 100), n2 = rng.next_in(1, 100),
      cb = rng.next_in(1, 100);
      break;
  }
  const std::int64_t ka = std::min(ra, n2) > 0
                              ? rng.next_in(0, std::min(ra, n2))
                              : 0;  // 0 = all rows empty
  const std::int64_t kb =
      std::min(n2, cb) > 0 ? rng.next_in(0, std::min(n2, cb)) : 0;
  in.as.push_back(Perm::random_sub(ra, n2, ka, rng).row_to_col());
  in.bs.push_back(Perm::random_sub(n2, cb, kb, rng).row_to_col());
  in.b_cols.push_back(cb);
}

void finalize_views(SubunitBatchInputs& in) {
  in.views.clear();
  for (std::size_t t = 0; t < in.as.size(); ++t) {
    in.views.push_back({in.as[t], in.bs[t], in.b_cols[t]});
  }
}

// Random batches (including the empty batch) of random shapes: the batched
// subunit solve must be bit-identical to solving every pair with an
// independent engine. Covers well over 1000 shapes.
TEST(SeaweedEngineSubunitBatch, MatchesPerCallFuzz) {
  Rng rng(20260729);
  SeaweedEngine batch_engine;
  SeaweedEngine single_engine;
  std::int64_t cases = 0;
  for (int round = 0; round < 150; ++round) {
    SubunitBatchInputs in;
    const std::uint64_t batch_size = rng.next_below(17);  // 0..16
    for (std::uint64_t t = 0; t < batch_size; ++t) {
      push_random_subunit_pair(in, rng);
    }
    finalize_views(in);
    const auto got = testing::subunit_raw_batch(batch_engine, in.views);
    ASSERT_EQ(got.size(), in.as.size());
    for (std::size_t t = 0; t < in.as.size(); ++t) {
      ASSERT_EQ(got[t], testing::subunit_raw_product(single_engine, in.as[t],
                                                     in.bs[t], in.b_cols[t]))
          << "round=" << round << " pair=" << t << " ra=" << in.as[t].size()
          << " n2=" << in.bs[t].size() << " cb=" << in.b_cols[t];
      ++cases;
    }
  }
  EXPECT_GE(cases, 1000);
}

// Striping a subunit batch across a ThreadPool must not change a single
// bit, for every thread count; repeated on the warm arena.
TEST(SeaweedEngineSubunitBatch, StripedAcrossPoolMatchesSequential) {
  Rng rng(777);
  SubunitBatchInputs in;
  for (int t = 0; t < 24; ++t) push_random_subunit_pair(in, rng);
  finalize_views(in);
  SeaweedEngine sequential;
  const auto expect = testing::subunit_raw_batch(sequential, in.views);
  for (const unsigned threads : {2u, 3u, 4u}) {
    ThreadPool pool(threads);
    // A tiny grain also forces forking inside the larger core solves,
    // nesting invoke_two under the batch fork-join.
    SeaweedEngine striped({.parallel_grain = 32, .pool = &pool});
    ASSERT_EQ(testing::subunit_raw_batch(striped, in.views), expect)
        << "threads=" << threads;
    ASSERT_EQ(testing::subunit_raw_batch(striped, in.views), expect)
        << "threads=" << threads << " (warm arena)";
  }
}

TEST(SeaweedEngineSubunitBatch, EmptyBatchAndDegeneratePairs) {
  SeaweedEngine engine;
  EXPECT_TRUE(testing::subunit_raw_batch(engine, {}).empty());
  const std::vector<std::int32_t> empty;
  const std::vector<std::int32_t> none_row{kNone, kNone};
  const std::vector<std::int32_t> ident{0, 1};
  std::vector<SubunitPairView> views{
      {empty, empty, 0},      // 0×0 ⊡ 0×0
      {none_row, ident, 2},   // all rows of A empty
      {ident, none_row, 2},   // all rows of B empty
      {ident, ident, 2},      // tiny identity product
  };
  const auto got = testing::subunit_raw_batch(engine, views);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_TRUE(got[0].empty());
  EXPECT_EQ(got[1], none_row);
  EXPECT_EQ(got[2], none_row);
  EXPECT_EQ(got[3], ident);
}

// The arena is sized once for the whole batch: re-running the same batch
// must not grow the buffer.
TEST(SeaweedEngineSubunitBatch, ArenaSizedOnceForWholeBatch) {
  Rng rng(31338);
  SeaweedEngine engine;
  SubunitBatchInputs in;
  for (int t = 0; t < 12; ++t) push_random_subunit_pair(in, rng);
  finalize_views(in);
  const auto first = testing::subunit_raw_batch(engine, in.views);
  const std::size_t cap = engine.arena_capacity();
  EXPECT_EQ(testing::subunit_raw_batch(engine, in.views), first);
  EXPECT_EQ(engine.arena_capacity(), cap);
}

TEST(SeaweedEngine, SubunitMultiplyOverload) {
  Rng rng(99);
  SeaweedEngine engine;
  for (int rep = 0; rep < 10; ++rep) {
    const Perm a = Perm::random_sub(40, 30, 18, rng);
    const Perm b = Perm::random_sub(30, 50, 21, rng);
    ASSERT_EQ(subunit_multiply(a, b, engine), multiply_naive(a, b));
  }
}

TEST(SeaweedEngine, LisKernelOverload) {
  Rng rng(123);
  SeaweedEngine engine;
  const auto p = rng.permutation(200);
  EXPECT_EQ(lis::lis_kernel(p, engine),
            lis::lis_kernel(p, default_seaweed_engine()));
}

}  // namespace
}  // namespace monge
