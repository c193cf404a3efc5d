// SolverService: request digests, in-flight dedup (K identical concurrent
// submits -> exactly one underlying solve), bounded admission (reject and
// block), LRU result-cache behavior incl. eviction, bit-identity of
// service answers vs direct Solver::solve on all three backends (fresh and
// cached), shutdown drain, and the chaos path (unrecoverable MpcSim fault
// -> degraded report through the future).
#include "api/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "lis/sequential.h"
#include "util/error.h"
#include "util/rng.h"

namespace monge {
namespace {

std::vector<std::int64_t> random_sequence(std::int64_t n, std::int64_t hi,
                                          Rng& rng) {
  std::vector<std::int64_t> seq(static_cast<std::size_t>(n));
  for (auto& x : seq) x = rng.next_in(0, hi);
  return seq;
}

TEST(RequestDigest, IdenticalPayloadsDigestEqually) {
  Rng rng(1);
  const auto seq = random_sequence(32, 100, rng);
  const LisRequest a{.seq = seq, .want_kernel = true, .windows = {{1, 5}}};
  const LisRequest b{.seq = seq, .want_kernel = true, .windows = {{1, 5}}};
  EXPECT_EQ(request_digest(a), request_digest(b));

  MultiplyRequest m1{Perm::identity(8), Perm::reverse(8)};
  MultiplyRequest m2{Perm::identity(8), Perm::reverse(8)};
  EXPECT_EQ(request_digest(m1), request_digest(m2));
}

TEST(RequestDigest, DistinguishesPayloadsAndFieldBoundaries) {
  // The s/t split is length-prefixed: moving one element across the
  // boundary must change the digest even though the concatenation agrees.
  const LcsRequest split_a{.s = {1, 2}, .t = {3}};
  const LcsRequest split_b{.s = {1}, .t = {2, 3}};
  EXPECT_NE(request_digest(split_a), request_digest(split_b));

  Rng rng(2);
  const auto seq = random_sequence(32, 100, rng);
  const LisRequest plain{.seq = seq};
  const LisRequest kernel{.seq = seq, .want_kernel = true};
  const LisRequest windowed{.seq = seq, .windows = {{0, 3}}};
  EXPECT_NE(request_digest(plain), request_digest(kernel));
  EXPECT_NE(request_digest(plain), request_digest(windowed));

  MultiplyRequest full{Perm::identity(8), Perm::identity(8),
                       MultiplyRequest::Kind::kFull};
  MultiplyRequest sub{Perm::identity(8), Perm::identity(8),
                      MultiplyRequest::Kind::kSubunit};
  EXPECT_NE(request_digest(full), request_digest(sub));

  // Different request types never share a digest (type tag word).
  const LisRequest lis_like{.seq = {1, 2}};
  const LcsRequest lcs_like{.s = {1, 2}, .t = {}};
  EXPECT_NE(request_digest(lis_like), request_digest(lcs_like));
}

TEST(RequestDigest, PinnedValuesPerType) {
  // Digests are cache keys, so their values are part of the contract: a
  // refactor of the request or service code must not move them. Query
  // requests use an empty handle (id 0) so the value is process-independent.
  const auto expect_digest = [](RequestDigest got, std::uint64_t lo,
                                std::uint64_t hi) {
    EXPECT_EQ(got, (RequestDigest{lo, hi}));
  };
  expect_digest(
      request_digest(MultiplyRequest{Perm::reverse(8), Perm::identity(8)}),
      0xc50d49c6c5848cf0ULL, 0x32593e7a43ddec32ULL);
  expect_digest(request_digest(LisRequest{.seq = {3, 1, 4, 1, 5, 9, 2, 6},
                                          .want_kernel = true,
                                          .windows = {{1, 5}, {6, 2}}}),
                0x5e976ee6506e69a1ULL, 0x3f3bd4a75ecff676ULL);
  expect_digest(request_digest(LcsRequest{.s = {1, 2, 3, 2}, .t = {2, 3, 1}}),
                0xf8b8a4a67b8a7123ULL, 0x578332acd471efccULL);
  expect_digest(
      request_digest(BuildIndexRequest{
          .kind = BuildIndexRequest::Kind::kSubstringLcs,
          .seq = {1, 2, 3},
          .t = {3, 2, 1}}),
      0x43830c942c81a07eULL, 0x6e9478b9e0cb8984ULL);
  expect_digest(request_digest(WindowLisQuery{{}, {{0, 3}, {2, 1}}}),
                0xa86d825939091242ULL, 0x451d7ee5e7e949b5ULL);
  expect_digest(request_digest(SubstringLcsQuery{{}, {{1, 2}}}),
                0x8e67956a1a8e5d4dULL, 0x1a3b716d4534795cULL);
}

// ---------------------------------------------------------------------------
// Coverage driven by RequestTypes: every listed type must solve, submit,
// try_submit and cache. A listed type without a solve_on route fails to
// build here.
// ---------------------------------------------------------------------------

template <typename List>
struct TupleOf;
template <typename... Rs>
struct TupleOf<RequestList<Rs...>> {
  using type = std::tuple<Rs...>;
};

/// One sample request per listed type; the query samples run against
/// indexes built on `solver`.
TupleOf<RequestTypes>::type sample_requests(Solver& solver, Rng& rng) {
  TupleOf<RequestTypes>::type samples;
  std::get<MultiplyRequest>(samples) = {Perm::random(24, rng),
                                        Perm::random(24, rng)};
  std::get<LisRequest>(samples) = {.seq = random_sequence(40, 100, rng),
                                   .want_kernel = true,
                                   .windows = {{0, 9}, {4, 30}, {8, 3}}};
  std::get<LcsRequest>(samples) = {.s = random_sequence(20, 5, rng),
                                   .t = random_sequence(24, 5, rng)};
  std::get<BuildIndexRequest>(samples) = {.seq = random_sequence(32, 50, rng)};
  const QueryHandle lis_index =
      solver.solve(BuildIndexRequest{.seq = random_sequence(30, 60, rng)})
          .handle;
  const QueryHandle lcs_index =
      solver
          .solve(BuildIndexRequest{
              .kind = BuildIndexRequest::Kind::kSubstringLcs,
              .seq = random_sequence(18, 4, rng),
              .t = random_sequence(22, 4, rng)})
          .handle;
  std::get<WindowLisQuery>(samples) = {lis_index, {{0, 29}, {3, 17}, {9, 2}}};
  std::get<SubstringLcsQuery>(samples) = {lcs_index, {{0, 17}, {2, 11}}};
  return samples;
}

void expect_same(const MultiplyResult& got, const MultiplyResult& want) {
  EXPECT_EQ(got.c, want.c);
  EXPECT_EQ(got.report.rounds, want.report.rounds);
}
void expect_same(const LisResult& got, const LisResult& want) {
  EXPECT_EQ(std::tie(got.lis, got.kernel, got.window_lis, got.rounds,
                     got.merge_levels),
            std::tie(want.lis, want.kernel, want.window_lis, want.rounds,
                     want.merge_levels));
}
void expect_same(const LcsResult& got, const LcsResult& want) {
  EXPECT_EQ(std::tie(got.lcs, got.matches, got.rounds),
            std::tie(want.lcs, want.matches, want.rounds));
}
void expect_same(const BuildIndexResult& got, const BuildIndexResult& want) {
  // Distinct solves build distinct (bit-identical) indexes, so the handles
  // compare by what they index, not by identity.
  ASSERT_TRUE(got.handle.valid());
  EXPECT_EQ(std::tie(got.n, got.points, got.full, got.rounds),
            std::tie(want.n, want.points, want.full, want.rounds));
}
void expect_same(const WindowLisResult& got, const WindowLisResult& want) {
  EXPECT_EQ(got.lis, want.lis);
}
void expect_same(const SubstringLcsResult& got,
                 const SubstringLcsResult& want) {
  EXPECT_EQ(got.lcs, want.lcs);
}

template <typename R>
void expect_round_trip(const R& req) {
  using Result = typename R::Result;
  Solver fresh;
  static_assert(std::is_same_v<decltype(fresh.solve(req)), Result>);
  static_assert(std::is_same_v<decltype(fresh.try_solve(req)),
                               TrySolveResult<Result>>);
  const Result want = fresh.solve(req);

  SolverService submit_service({.workers = 1});
  expect_same(submit_service.submit(req).get(), want);

  SolverService try_service({.workers = 1});
  auto first = try_service.try_submit(req);
  ASSERT_TRUE(first.admitted());
  const TrySolveResult<Result> fresh_res = first.future.get();
  ASSERT_TRUE(fresh_res.ok()) << fresh_res.report.message;
  EXPECT_FALSE(fresh_res.report.cached);
  expect_same(fresh_res.value, want);

  auto again = try_service.try_submit(req);
  ASSERT_TRUE(again.admitted());
  const TrySolveResult<Result> cached_res = again.future.get();
  EXPECT_TRUE(cached_res.report.cached);
  expect_same(cached_res.value, want);
  EXPECT_EQ(try_service.stats().solves, 1);
  EXPECT_EQ(try_service.stats().cache_hits, 1);
}

TEST(SolverService, EveryListedRequestTypeSolvesSubmitsAndCaches) {
  Rng rng(9);
  Solver index_solver;
  const auto samples = sample_requests(index_solver, rng);
  std::apply([](const auto&... req) { (expect_round_trip(req), ...); },
             samples);
}

TEST(SolverService, OptionsValidatedAtConstruction) {
  EXPECT_NO_THROW(SolverService{ServiceOptions{.workers = 2}});
  ServiceOptions bad_depth;
  bad_depth.queue_depth = 0;
  EXPECT_THROW(SolverService{bad_depth}, InvalidRequestError);
  ServiceOptions bad_admission;
  bad_admission.admission = static_cast<AdmissionPolicy>(7);
  EXPECT_THROW(SolverService{bad_admission}, InvalidRequestError);
  // Nested solver knobs are validated eagerly, on the constructing thread.
  ServiceOptions bad_solver;
  bad_solver.solver.mpc_delta = 2.0;
  EXPECT_THROW(SolverService{bad_solver}, InvalidRequestError);
  // 2 is the retired reference backend; it must fail closed too.
  ServiceOptions bad_backend;
  bad_backend.solver.backend = static_cast<SolverBackend>(2);
  EXPECT_THROW(SolverService{bad_backend}, InvalidRequestError);
}

TEST(SolverService, MatchesDirectSolverOnSequential) {
  Rng rng(10);
  Solver direct;
  SolverService service({.workers = 2});

  const MultiplyRequest mul{Perm::random(32, rng), Perm::random(32, rng)};
  const MultiplyRequest sub{Perm::random_sub(20, 28, 12, rng),
                            Perm::random_sub(28, 24, 14, rng),
                            MultiplyRequest::Kind::kSubunit};
  const LisRequest lis{.seq = random_sequence(48, 200, rng),
                       .want_kernel = true,
                       .windows = {{0, 10}, {5, 30}, {7, 2}}};
  const LcsRequest lcs{.s = random_sequence(24, 6, rng),
                       .t = random_sequence(30, 6, rng)};

  auto fm = service.submit(mul);
  auto fs = service.submit(sub);
  auto fl = service.submit(lis);
  auto fc = service.submit(lcs);

  EXPECT_EQ(fm.get().c, direct.solve(mul).c);
  EXPECT_EQ(fs.get().c, direct.solve(sub).c);
  const auto lis_direct = direct.solve(lis);
  const auto lis_served = fl.get();
  EXPECT_EQ(lis_served.lis, lis_direct.lis);
  EXPECT_EQ(lis_served.kernel, lis_direct.kernel);
  EXPECT_EQ(lis_served.window_lis, lis_direct.window_lis);
  const auto lcs_direct = direct.solve(lcs);
  const auto lcs_served = fc.get();
  EXPECT_EQ(lcs_served.lcs, lcs_direct.lcs);
  EXPECT_EQ(lcs_served.matches, lcs_direct.matches);
}

TEST(SolverService, MatchesDirectSolverOnMpcSimIncludingRounds) {
  Rng rng(11);
  SolverOptions sopts;
  sopts.backend = SolverBackend::kMpcSim;
  sopts.cluster.threads = 1;
  Solver direct(sopts);
  SolverService service({.solver = sopts, .workers = 1});

  const LisRequest lis{.seq = random_sequence(96, 1 << 12, rng)};
  const LcsRequest lcs{.s = random_sequence(20, 5, rng),
                       .t = random_sequence(24, 5, rng)};

  auto fl = service.submit(lis);
  auto fc = service.submit(lcs);
  const auto lis_direct = direct.solve(lis);
  const auto lis_served = fl.get();
  EXPECT_EQ(lis_served.lis, lis_direct.lis);
  EXPECT_EQ(lis_served.rounds, lis_direct.rounds);
  EXPECT_EQ(lis_served.merge_levels, lis_direct.merge_levels);
  const auto lcs_direct = direct.solve(lcs);
  const auto lcs_served = fc.get();
  EXPECT_EQ(lcs_served.lcs, lcs_direct.lcs);
  EXPECT_EQ(lcs_served.matches, lcs_direct.matches);
  EXPECT_EQ(lcs_served.rounds, lcs_direct.rounds);
}

TEST(SolverService, DedupCoalescesConcurrentIdenticalSubmits) {
  Rng rng(12);
  std::latch release(1);
  ServiceOptions opts;
  opts.workers = 1;
  opts.solve_hook = [&] { release.wait(); };
  SolverService service(opts);

  const LisRequest req{.seq = random_sequence(64, 500, rng),
                       .want_kernel = true};
  constexpr int kIdentical = 6;
  std::vector<std::future<LisResult>> futs;
  for (int i = 0; i < kIdentical; ++i) futs.push_back(service.submit(req));
  // The worker is held at the hook, so every later submit coalesced onto
  // the single in-flight computation instead of spending a queue slot.
  release.count_down();

  std::vector<LisResult> results;
  for (auto& f : futs) results.push_back(f.get());
  for (const auto& r : results) {
    EXPECT_EQ(r.lis, results[0].lis);
    EXPECT_EQ(r.kernel, results[0].kernel);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kIdentical);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.solves, 1);  // exactly ONE underlying solve
  EXPECT_EQ(stats.coalesced, kIdentical - 1);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(SolverService, QueueFullRejectsWithOverloadedStatus) {
  Rng rng(13);
  std::latch entered(1);
  std::latch release(1);
  std::atomic<bool> first_call{true};
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  opts.admission = AdmissionPolicy::kReject;
  opts.solve_hook = [&] {
    if (first_call.exchange(false)) entered.count_down();
    release.wait();
  };
  SolverService service(opts);

  const LisRequest plug{.seq = random_sequence(32, 100, rng)};
  const LisRequest queued{.seq = random_sequence(33, 100, rng)};
  const LisRequest refused_a{.seq = random_sequence(34, 100, rng)};
  const LcsRequest refused_b{.s = {1, 2, 3}, .t = {3, 2, 1}};

  auto f_plug = service.submit(plug);
  entered.wait();  // the worker holds `plug`; the queue is empty again
  auto f_queued = service.submit(queued);  // fills the depth-1 queue

  // Queue full: try_submit reports kOverloaded, submit throws.
  auto rejected = service.try_submit(refused_a);
  EXPECT_FALSE(rejected.admitted());
  EXPECT_EQ(rejected.admission.status, SolveStatus::kOverloaded);
  EXPECT_FALSE(rejected.future.valid());
  EXPECT_THROW(service.submit(refused_b), OverloadedError);

  // Coalescing and cache hits bypass admission: an identical in-flight
  // request attaches even though the queue is full.
  auto f_coalesced = service.submit(queued);

  release.count_down();
  EXPECT_EQ(f_plug.get().lis, lis::lis_length(plug.seq));
  EXPECT_EQ(f_queued.get().lis, lis::lis_length(queued.seq));
  EXPECT_EQ(f_coalesced.get().lis, lis::lis_length(queued.seq));
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.coalesced, 1);
  EXPECT_EQ(stats.solves, 2);
}

TEST(SolverService, BlockingAdmissionWaitsForASlot) {
  Rng rng(14);
  std::latch entered(1);
  std::latch release(1);
  std::atomic<bool> first_call{true};
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  opts.admission = AdmissionPolicy::kBlock;
  opts.solve_hook = [&] {
    if (first_call.exchange(false)) entered.count_down();
    release.wait();
  };
  SolverService service(opts);

  const LisRequest a{.seq = random_sequence(32, 100, rng)};
  const LisRequest b{.seq = random_sequence(33, 100, rng)};
  const LisRequest c{.seq = random_sequence(34, 100, rng)};

  auto fa = service.submit(a);
  entered.wait();
  auto fb = service.submit(b);  // queue now full

  std::future<LisResult> fc;
  std::thread blocked([&] { fc = service.submit(c); });  // must block
  release.count_down();
  blocked.join();

  EXPECT_EQ(fa.get().lis, lis::lis_length(a.seq));
  EXPECT_EQ(fb.get().lis, lis::lis_length(b.seq));
  EXPECT_EQ(fc.get().lis, lis::lis_length(c.seq));
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.admitted, 3);
}

TEST(SolverService, CacheServesRepeatsAndEvictsLeastRecentlyUsed) {
  Rng rng(15);
  ServiceOptions opts;
  opts.workers = 1;
  opts.cache_capacity = 2;
  SolverService service(opts);

  const LisRequest a{.seq = random_sequence(40, 300, rng)};
  const LisRequest b{.seq = random_sequence(41, 300, rng)};
  const LisRequest c{.seq = random_sequence(42, 300, rng)};

  const auto a_fresh = service.submit(a).get();
  EXPECT_EQ(service.stats().solves, 1);
  const auto a_cached = service.submit(a).get();  // hit
  EXPECT_EQ(service.stats().solves, 1);
  EXPECT_EQ(service.stats().cache_hits, 1);
  EXPECT_EQ(a_cached.lis, a_fresh.lis);

  // The cache is shared across submit flavors; try_submit flags the hit.
  auto a_try = service.try_submit(a);
  ASSERT_TRUE(a_try.admitted());
  const auto a_try_res = a_try.future.get();
  EXPECT_TRUE(a_try_res.report.cached);
  EXPECT_EQ(a_try_res.value.lis, a_fresh.lis);
  EXPECT_EQ(service.stats().cache_hits, 2);

  (void)service.submit(b).get();  // LRU: {B, A}
  (void)service.submit(c).get();  // evicts A -> {C, B}
  EXPECT_EQ(service.stats().solves, 3);
  (void)service.submit(a).get();  // miss: A was evicted
  EXPECT_EQ(service.stats().solves, 4);
  (void)service.submit(c).get();  // C survived the eviction: hit
  EXPECT_EQ(service.stats().solves, 4);
  EXPECT_EQ(service.stats().cache_hits, 3);
}

TEST(SolverService, CachedResultsBitIdenticalToFreshOnAllBackends) {
  Rng rng(16);
  const auto seq = random_sequence(96, 1 << 12, rng);
  const auto s = random_sequence(20, 5, rng);
  const auto t = random_sequence(24, 5, rng);
  for (const auto backend :
       {SolverBackend::kSequential, SolverBackend::kMpcSim}) {
    SolverOptions sopts;
    sopts.backend = backend;
    sopts.cluster.threads = 1;
    Solver direct(sopts);
    SolverService service({.solver = sopts, .workers = 1});

    const LisRequest lis{.seq = seq, .want_kernel = true};
    const LcsRequest lcs{.s = s, .t = t};
    const auto lis_fresh = service.submit(lis).get();
    const auto lis_cached = service.submit(lis).get();
    const auto lcs_fresh = service.submit(lcs).get();
    const auto lcs_cached = service.submit(lcs).get();
    EXPECT_GE(service.stats().cache_hits, 2);

    const auto lis_direct = direct.solve(lis);
    EXPECT_EQ(lis_cached.lis, lis_fresh.lis);
    EXPECT_EQ(lis_cached.kernel, lis_fresh.kernel);
    EXPECT_EQ(lis_cached.rounds, lis_fresh.rounds);
    EXPECT_EQ(lis_fresh.lis, lis_direct.lis);
    EXPECT_EQ(lis_fresh.kernel, lis_direct.kernel);
    EXPECT_EQ(lis_fresh.rounds, lis_direct.rounds);
    EXPECT_EQ(lcs_cached.lcs, lcs_fresh.lcs);
    EXPECT_EQ(lcs_cached.matches, lcs_fresh.matches);
    EXPECT_EQ(lcs_cached.rounds, lcs_fresh.rounds);
    EXPECT_EQ(lcs_fresh.lcs, direct.solve(lcs).lcs);
  }
}

TEST(SolverService, ConcurrentSubmitsFromManyThreads) {
  Rng rng(17);
  // A pool of request templates every submitter draws from, so duplicate
  // traffic exercises the cache and in-flight dedup under contention.
  std::vector<LisRequest> lis_pool;
  for (int i = 0; i < 4; ++i) {
    lis_pool.push_back({.seq = random_sequence(40 + i, 200, rng)});
  }
  std::vector<LcsRequest> lcs_pool;
  for (int i = 0; i < 3; ++i) {
    lcs_pool.push_back({.s = random_sequence(16 + i, 4, rng),
                        .t = random_sequence(18 + i, 4, rng)});
  }
  std::vector<MultiplyRequest> mul_pool;
  for (int i = 0; i < 3; ++i) {
    mul_pool.push_back({Perm::random(24, rng), Perm::random(24, rng)});
  }

  Solver direct;
  std::vector<std::int64_t> lis_expected, lcs_expected;
  std::vector<Perm> mul_expected;
  for (const auto& r : lis_pool) lis_expected.push_back(direct.solve(r).lis);
  for (const auto& r : lcs_pool) lcs_expected.push_back(direct.solve(r).lcs);
  for (const auto& r : mul_pool) mul_expected.push_back(direct.solve(r).c);

  SolverService service({.workers = 2});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int tid = 0; tid < kThreads; ++tid) {
    submitters.emplace_back([&, tid] {
      for (int i = 0; i < kPerThread; ++i) {
        const int pick = (tid * 7 + i) % 10;
        if (pick < 4) {
          auto f = service.submit(lis_pool[static_cast<std::size_t>(pick)]);
          if (f.get().lis != lis_expected[static_cast<std::size_t>(pick)]) {
            ++failures;
          }
        } else if (pick < 7) {
          const int k = pick - 4;
          auto f = service.submit(lcs_pool[static_cast<std::size_t>(k)]);
          if (f.get().lcs != lcs_expected[static_cast<std::size_t>(k)]) {
            ++failures;
          }
        } else {
          const int k = pick - 7;
          auto f = service.submit(mul_pool[static_cast<std::size_t>(k)]);
          if (!(f.get().c == mul_expected[static_cast<std::size_t>(k)])) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(failures, 0);

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  // Each of the 10 templates is solved exactly once: after the first
  // completion it is cache-resident (capacity never overflows here), and
  // while in flight identical submits coalesce.
  EXPECT_EQ(stats.solves, 10);
  EXPECT_EQ(stats.cache_hits + stats.coalesced + stats.solves,
            stats.submitted);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(SolverService, ShutdownDrainsAdmittedWork) {
  Rng rng(18);
  std::latch release(1);
  std::vector<LisRequest> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back({.seq = random_sequence(30 + i, 100, rng)});
  }
  std::vector<std::future<LisResult>> futs;
  std::thread releaser;
  {
    ServiceOptions opts;
    opts.workers = 1;
    opts.solve_hook = [&] { release.wait(); };
    SolverService service(opts);
    for (const auto& r : reqs) futs.push_back(service.submit(r));
    releaser = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.count_down();
    });
    // ~SolverService: three of the four jobs are still queued (the worker
    // is held at the hook) — all must drain, none may be dropped.
  }
  releaser.join();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(futs[i].valid());
    EXPECT_EQ(futs[i].get().lis, lis::lis_length(reqs[i].seq));
  }
}

TEST(ServiceChaos, UnrecoverableFaultDegradesThroughTheFuture) {
  Rng rng(19);
  const auto seq = random_sequence(96, 1 << 12, rng);
  ServiceOptions opts;
  opts.workers = 1;
  opts.solver.backend = SolverBackend::kMpcSim;
  opts.solver.cluster.num_machines = 4;
  opts.solver.cluster.space_words = 1 << 20;
  opts.solver.cluster.threads = 1;
  // Crash in an uncheckpointed round: recovery is impossible by design
  // (same schedule as SolverTrySolve.UnrecoverableFaultDegradesToSequential).
  opts.solver.cluster.checkpoint_interval = 2;
  opts.solver.cluster.faults.scheduled.push_back(
      {/*round=*/1, /*machine=*/0, mpc::FaultKind::kCrash});
  SolverService service(opts);

  const LisRequest req{.seq = seq};
  auto sub = service.try_submit(req);
  ASSERT_TRUE(sub.admitted());
  const auto res = sub.future.get();
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.report.degraded);
  EXPECT_EQ(res.report.backend, SolverBackend::kSequential);
  EXPECT_FALSE(res.report.cached);
  EXPECT_NE(res.report.message.find("degraded to sequential"),
            std::string::npos);
  EXPECT_EQ(res.value.lis, lis::lis_length(seq));

  // Degraded values are not cached: an identical try_submit re-solves
  // (the fresh per-worker cluster replays the same deterministic crash).
  auto again = service.try_submit(req);
  ASSERT_TRUE(again.admitted());
  const auto res2 = again.future.get();
  EXPECT_TRUE(res2.report.degraded);
  EXPECT_FALSE(res2.report.cached);
  EXPECT_EQ(res2.value.lis, res.value.lis);
  EXPECT_EQ(service.stats().solves, 2);
  EXPECT_EQ(service.stats().cache_hits, 0);

  // The throwing flavor surfaces the taxonomy through future::get().
  auto thrown = service.submit(req);
  EXPECT_THROW(thrown.get(), FaultError);
  EXPECT_EQ(service.stats().solve_errors, 1);
}

}  // namespace
}  // namespace monge
