// service-mixed: an open loop on a SolverService with 2 workers and
// AdmissionPolicy::kReject. One generator thread submits at a fixed,
// seeded Poisson arrival schedule; a collector thread stamps completions.
// Requests mix small multiplies, LIS-with-windows and LCS requests with
// WindowLisQuery batches against indexes built during set-up. Half of them
// repeat a hot set, and the per-type cache holds fewer entries than the hot
// set alone, so cache hits interleave with inserts and evictions. Payloads
// are small next to the closed loops' (a fresh multiply takes ~1 ms), so
// queue, digest and cache costs are a visible share, yet large enough that
// the solve rather than a thread wakeup sets the median. Every request is
// timed from when it was due.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <variant>

#include "api/service.h"
#include "bench.h"
#include "lcs/hunt_szymanski.h"
#include "lis/kernel.h"
#include "lis/sequential.h"

namespace perfbench {
namespace {

using monge::Rng;

/// Arrival rate, frozen well below the capacity measured on a shared 4-vCPU
/// x86-64 host (see README.md): while other tenants load the host its
/// capacity drops by up to 1.7x, and nearer to saturation the median
/// latency grew up to twentyfold between runs. A re-calibration edits this
/// constant.
constexpr double kRateRps = 600.0;

enum Kind { kMultiply = 0, kLis = 1, kLcs = 2, kQuery = 3, kKinds = 4 };
const char* const kKindNames[kKinds] = {"multiply", "lis", "lcs", "query"};
/// Request mix in percent. Sorted by latency, the modes are cache hits
/// (~11 %), fresh queries (~5 %), fresh multiplies (~62 %) overlapping
/// fresh LCS (~8 %), and fresh LIS (~6 %); the median sits in the middle of
/// the fresh-multiply mode, not on a mode boundary.
constexpr int kMixPercent[kKinds] = {70, 10, 12, 8};

struct Sizes {
  std::int64_t multiply_n, lis_n, lis_windows, lcs_len, lcs_alphabet,
      index_n, query_windows;
};
constexpr Sizes kFull{2048, 512, 8, 512, 16, 4096, 16};
constexpr Sizes kSmoke{32, 64, 4, 32, 8, 128, 4};
constexpr int kHotPerKind = 64;
constexpr int kIndexes = 4;
constexpr std::size_t kCacheCapacity = 32;  // per request type, < kHotPerKind
constexpr unsigned kWorkers = 2;
constexpr unsigned kOracleThreads = 3;

struct Payload {
  Kind kind = kMultiply;
  monge::MultiplyRequest mul;
  monge::LisRequest lis;
  monge::LcsRequest lcs;
  monge::WindowLisQuery query;
};

Payload make_payload(Kind kind, const Sizes& z,
                     const std::vector<monge::QueryHandle>& indexes,
                     Rng& rng) {
  Payload p;
  p.kind = kind;
  switch (kind) {
    case kMultiply:
      p.mul.a = monge::Perm::random(z.multiply_n, rng);
      p.mul.b = monge::Perm::random(z.multiply_n, rng);
      break;
    case kLis:
      p.lis.seq = random_sequence(z.lis_n, rng);
      p.lis.windows = random_windows(z.lis_n, z.lis_windows, rng);
      break;
    case kLcs:
      for (auto* v : {&p.lcs.s, &p.lcs.t}) {
        v->resize(static_cast<std::size_t>(z.lcs_len));
        for (auto& x : *v) x = rng.next_in(0, z.lcs_alphabet - 1);
      }
      break;
    default: {
      const auto& h = indexes[rng.next_below(indexes.size())];
      p.query.handle = h;
      p.query.windows = random_windows(h.index->size(), z.query_windows, rng);
      break;
    }
  }
  return p;
}

/// FNV-1a over the answer fields of a result.
struct Hasher {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  template <typename Vec>
  void all(const Vec& v) {
    add(static_cast<std::int64_t>(v.size()));
    for (const auto x : v) add(x);
  }
};
std::uint64_t answer_hash(const monge::MultiplyResult& r) {
  Hasher h;
  h.all(r.c.row_to_col());
  return h.h;
}
std::uint64_t answer_hash(const monge::LisResult& r) {
  Hasher h;
  h.add(r.lis);
  h.all(r.window_lis);
  return h.h;
}
std::uint64_t answer_hash(const monge::LcsResult& r) {
  Hasher h;
  h.add(r.lcs);
  h.add(r.matches);
  return h.h;
}
std::uint64_t answer_hash(const monge::WindowLisResult& r) {
  Hasher h;
  h.all(r.lis);
  return h.h;
}

/// Calls `fn` with the payload's request.
template <typename Fn>
auto with_request(const Payload& p, Fn&& fn) {
  switch (p.kind) {
    case kMultiply: return fn(p.mul);
    case kLis: return fn(p.lis);
    case kLcs: return fn(p.lcs);
    default: return fn(p.query);
  }
}

/// A direct Solver solve of a payload: the verification oracle.
std::uint64_t direct_hash(monge::Solver& solver, const Payload& p) {
  return with_request(
      p, [&](const auto& req) { return answer_hash(solver.solve(req)); });
}

using AnyFuture =
    std::variant<std::future<monge::TrySolveResult<monge::MultiplyResult>>,
                 std::future<monge::TrySolveResult<monge::LisResult>>,
                 std::future<monge::TrySolveResult<monge::LcsResult>>,
                 std::future<monge::TrySolveResult<monge::WindowLisResult>>>;

/// One scheduled request of the open loop and what happened to it. The
/// generator writes the send fields, the collector the completion fields.
struct Record {
  Kind kind = kMultiply;
  int hot = -1;  // index into the hot set, -1 for a unique request
  double due_ms = 0, send_ms = 0, submitted_ms = 0, done_ms = 0;
  bool admitted = false, enqueued = false, cached = false, ok = false;
  std::string failure;
  std::uint64_t hash = 0;
};

struct Schedule {
  std::vector<Record> records;
  std::uint64_t seed = 0;
  std::uint64_t stream = 0;
};

Schedule make_schedule(std::uint64_t seed, std::uint64_t stream, double rate,
                       double seconds) {
  Schedule s;
  s.seed = seed;
  s.stream = stream;
  Rng rng = stream_rng(seed, stream);
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) * 1e3 / rate;
    if (t >= seconds * 1e3) break;
    Record r;
    r.due_ms = t;
    int pick = static_cast<int>(rng.next_below(100));
    int k = 0;
    while (pick >= kMixPercent[k]) pick -= kMixPercent[k++];
    r.kind = static_cast<Kind>(k);
    r.hot = rng.next_below(2) == 0
                ? static_cast<int>(rng.next_below(kHotPerKind))
                : -1;
    s.records.push_back(r);
  }
  return s;
}

/// Payload of record i: a copy of its hot request, or its own unique one.
Payload payload_of(const Schedule& s, std::size_t i, const Sizes& z,
                   const std::vector<std::vector<Payload>>& hot,
                   const std::vector<monge::QueryHandle>& indexes) {
  const Record& r = s.records[i];
  if (r.hot >= 0) {
    return hot[static_cast<std::size_t>(r.kind)]
              [static_cast<std::size_t>(r.hot)];
  }
  Rng rng = stream_rng(s.seed, s.stream * 1000003ULL + i + 1);
  return make_payload(r.kind, z, indexes, rng);
}

struct Pending {
  std::size_t index = 0;
  AnyFuture future;
};

/// Starts spinners at SCHED_IDLE priority on the CPUs the generator and the
/// collector leave free; they run until `stop` is set. A waking service
/// worker takes such a CPU at once, since the scheduler counts it as idle,
/// where a halted vCPU would first have to be rescheduled by the hypervisor:
/// on a shared host that wakeup alone ranged from 0.05 ms to over 1 ms and
/// set the median latency. The spinners stand in for the idle=poll or
/// cpu_dma_latency setting of a latency benchmark host, which the benchmark
/// cannot make. A spinner that cannot lower its priority exits at once, so
/// none ever competes with the service.
std::vector<std::thread> keep_cpus_awake(const std::atomic<bool>& stop) {
  const int free_cpus =
      static_cast<int>(std::thread::hardware_concurrency()) - 2;
  std::vector<std::thread> spinners;
  for (int i = 0; i < std::clamp(free_cpus, 0, 8); ++i) {
    spinners.emplace_back([&stop] {
      const sched_param idle{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle) != 0) return;
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  return spinners;
}

/// Drives one open-loop pass of `s` against `service`. With `per_submit`
/// set, the service's counters are read after every submission to learn
/// which ones entered the queue (the traced run needs it).
///
/// The generator and the collector spin instead of sleeping: on a shared
/// host every wakeup of an idle CPU can take a scheduling delay, and the
/// benchmark's own two wakeups per request (send, observe) would otherwise
/// swing the measured latency as much as the service's. For the same
/// reason the other CPUs are kept out of idle (keep_cpus_awake).
void drive(monge::SolverService& service, Schedule& s, const Sizes& z,
           const std::vector<std::vector<Payload>>& hot,
           const std::vector<monge::QueryHandle>& indexes, bool per_submit,
           Clock::time_point origin) {
  std::mutex mu;
  std::vector<Pending> inbox;  // guarded by mu
  std::atomic<bool> done{false};
  const auto ms_now = [&] { return ms_between(origin, Clock::now()); };

  std::thread collector([&] {
    std::vector<Pending> open;
    for (;;) {
      const bool last = done.load(std::memory_order_acquire);
      {
        std::lock_guard<std::mutex> lock(mu);
        for (auto& p : inbox) open.push_back(std::move(p));
        inbox.clear();
      }
      if (last && open.empty()) return;
      std::size_t kept = 0;
      for (auto& p : open) {
        Record& rec = s.records[p.index];
        const bool ready = std::visit(
            [&](auto& f) {
              if (f.wait_for(std::chrono::seconds(0)) !=
                  std::future_status::ready) {
                return false;
              }
              if (rec.done_ms == 0) rec.done_ms = ms_now();
              try {
                const auto res = f.get();
                rec.cached = res.report.cached;
                rec.ok = res.ok();
                if (rec.ok) {
                  rec.hash = answer_hash(res.value);
                } else {
                  rec.failure =
                      std::string(monge::solve_status_name(res.report.status)) +
                      ": " + res.report.message;
                }
              } catch (const std::exception& e) {
                rec.failure = std::string("exception: ") + e.what();
              }
              return true;
            },
            p.future);
        if (!ready) open[kept++] = std::move(p);
      }
      open.resize(kept);
    }
  });

  std::vector<std::thread> spinners = keep_cpus_awake(done);
  std::int64_t admitted_before = per_submit ? service.stats().admitted : 0;
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    Payload p = payload_of(s, i, z, hot, indexes);
    Record& rec = s.records[i];
    const auto due = origin + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(
                                      rec.due_ms));
    while (Clock::now() < due) {
    }
    rec.send_ms = ms_now();
    Pending pend{i, {}};
    const auto submit = [&](auto& req) {
      auto sub = service.try_submit(std::move(req));
      if (!sub.admitted()) {
        rec.failure = "overloaded: " + sub.admission.message;
        return false;
      }
      pend.future = std::move(sub.future);
      return true;
    };
    const bool admitted = p.kind == kMultiply ? submit(p.mul)
                          : p.kind == kLis    ? submit(p.lis)
                          : p.kind == kLcs    ? submit(p.lcs)
                                              : submit(p.query);
    rec.submitted_ms = ms_now();
    rec.admitted = admitted;
    if (per_submit) {
      const auto now_admitted = service.stats().admitted;
      rec.enqueued = now_admitted > admitted_before;
      admitted_before = now_admitted;
    }
    if (admitted) {
      std::lock_guard<std::mutex> lock(mu);
      inbox.push_back(std::move(pend));
    }
  }
  done.store(true, std::memory_order_release);
  collector.join();
  for (auto& t : spinners) t.join();
}

/// Counts outcomes of a pass and checks every answer against a direct
/// Solver solve of the same payload (outside any timing; the unique
/// requests are solved on a few threads, one Solver each).
void account(const Schedule& s, const Sizes& z,
             const std::vector<std::vector<Payload>>& hot,
             const std::vector<std::vector<std::uint64_t>>& hot_expected,
             const std::vector<monge::QueryHandle>& indexes, RunResult& r) {
  std::vector<std::uint64_t> want(s.records.size());
  std::vector<std::thread> oracles;
  for (unsigned t = 0; t < kOracleThreads; ++t) {
    oracles.emplace_back([&, t] {
      monge::Solver oracle;
      for (std::size_t i = t; i < s.records.size(); i += kOracleThreads) {
        const Record& rec = s.records[i];
        if (!rec.ok) continue;
        want[i] = rec.hot >= 0
                      ? hot_expected[static_cast<std::size_t>(rec.kind)]
                                    [static_cast<std::size_t>(rec.hot)]
                      : direct_hash(oracle, payload_of(s, i, z, hot, indexes));
      }
    });
  }
  for (auto& t : oracles) t.join();
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    const Record& rec = s.records[i];
    ++r.attempted;
    if (!rec.ok) {
      r.fail(rec.failure.empty() ? "unknown" : rec.failure);
      continue;
    }
    r.check(rec.hash == want[i], std::string(kKindNames[rec.kind]) +
                                     (rec.cached ? " (cached)" : " (fresh)"));
  }
}

std::unique_ptr<monge::SolverService> make_service(
    std::function<void()> hook) {
  monge::ServiceOptions o;
  o.workers = kWorkers;
  o.admission = monge::AdmissionPolicy::kReject;
  o.cache_capacity = kCacheCapacity;
  o.solve_hook = std::move(hook);
  return std::make_unique<monge::SolverService>(std::move(o));
}

}  // namespace

void run_service_mixed(const Args& args, RunResult& r) {
  const Sizes& z = args.smoke ? kSmoke : kFull;
  const double rate = args.smoke ? 200.0 : kRateRps;
  const int setup_reps = args.smoke ? 2 : 9;

  // Inputs (not timed): index sequences, warm-up and ledger payloads.
  Rng in = stream_rng(args.seed, 1);
  std::vector<std::vector<std::int64_t>> index_seqs;
  for (int i = 0; i < kIndexes; ++i) index_seqs.push_back(random_sequence(z.index_n, in));
  Rng ledger_rng(kLedgerSeed);
  const auto ledger_seq = random_sequence(z.index_n, ledger_rng);
  const Payload ledger_lcs = make_payload(kLcs, z, {}, ledger_rng);

  // Set-up: the service, its index builds (through the service) and one
  // warm-up request of each non-query kind.
  Samples setup_s;
  struct Backend {
    std::unique_ptr<monge::SolverService> service;
    std::vector<monge::QueryHandle> indexes;
  };
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    Backend b;
    b.service = make_service({});
    std::vector<std::future<monge::BuildIndexResult>> builds;
    for (const auto& seq : index_seqs) {
      builds.push_back(b.service->submit(monge::BuildIndexRequest{.seq = seq}));
    }
    for (auto& f : builds) b.indexes.push_back(f.get().handle);
    Rng warm_rng(kLedgerSeed + 1);
    (void)b.service->submit(make_payload(kMultiply, z, b.indexes, warm_rng).mul).get();
    (void)b.service->submit(make_payload(kLis, z, b.indexes, warm_rng).lis).get();
    (void)b.service->submit(make_payload(kLcs, z, b.indexes, warm_rng).lcs).get();
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
    return b;
  };
  Backend backend = repeat_setup(setup_reps, set_up);
  std::unique_ptr<monge::SolverService>& service = backend.service;
  const std::vector<monge::QueryHandle>& indexes = backend.indexes;

  // Hot set and its expected answers (not timed).
  monge::Solver oracle;
  std::vector<std::vector<Payload>> hot(kKinds);
  std::vector<std::vector<std::uint64_t>> hot_expected(kKinds);
  Rng hot_rng = stream_rng(args.seed, 2);
  for (int k = 0; k < kKinds; ++k) {
    for (int h = 0; h < kHotPerKind; ++h) {
      hot[k].push_back(make_payload(static_cast<Kind>(k), z, indexes, hot_rng));
      hot_expected[k].push_back(direct_hash(oracle, hot[k].back()));
    }
  }

  // Deterministic counts over the fixed ledger inputs.
  {
    const auto idx = monge::query::SemiLocalIndex::from_sequence(ledger_seq);
    r.count("query.index_bytes", idx.memory_bytes());
    r.count("query.index_points", idx.point_count());
    r.count("lcs.matches", monge::lcs::hs_match_count(ledger_lcs.lcs.s,
                                                     ledger_lcs.lcs.t));
  }

  // Untraced open loop.
  Schedule sched = make_schedule(args.seed, 3, rate, args.seconds);
  const auto before = service->stats();
  const auto origin = Clock::now() + std::chrono::milliseconds(5);
  drive(*service, sched, z, hot, indexes, false, origin);
  const auto after = service->stats();
  account(sched, z, hot, hot_expected, indexes, r);

  Samples lat, late, hits, by_kind[kKinds];
  double first_due = 0, last_done = 0;
  for (const auto& rec : sched.records) {
    late.add(rec.send_ms - rec.due_ms);
    if (!rec.ok) continue;
    const double ms = rec.done_ms - rec.due_ms;
    lat.add(ms);
    (rec.cached ? hits : by_kind[rec.kind]).add(ms);
    last_done = std::max(last_done, rec.done_ms);
  }
  // Where the median sits: cache hits, then fresh solves per kind.
  r.metric("latency_p50_ms.cache_hit", hits.median(), "ms");
  for (int k = 0; k < kKinds; ++k) {
    r.metric(std::string("latency_p50_ms.fresh_") + kKindNames[k],
             by_kind[k].median(), "ms");
    r.metric(std::string("fresh_share.") + kKindNames[k],
             static_cast<double>(by_kind[k].size()) /
                 static_cast<double>(std::max<std::size_t>(1, lat.size())),
             "share");
  }
  if (!sched.records.empty()) first_due = sched.records.front().due_ms;
  report_latency(r, lat);
  r.metric("throughput_rps",
           static_cast<double>(lat.size()) /
               std::max(1e-9, (last_done - first_due) / 1e3),
           "1/s");
  r.metric("offered_rps", rate, "1/s");
  r.metric("service.generator_late_ms_p50", late.median(), "ms");
  r.metric("service.generator_late_ms_p99", late.quantile(0.99), "ms");
  const auto submitted = static_cast<double>(after.submitted - before.submitted);
  r.metric("service.cache_hit_rate",
           static_cast<double>(after.cache_hits - before.cache_hits) / submitted,
           "share");
  r.metric("service.coalesce_rate",
           static_cast<double>(after.coalesced - before.coalesced) / submitted,
           "share");
  r.metric("service.rejected",
           static_cast<double>(after.rejected - before.rejected), "count");
  (void)repeat_setup(setup_reps, set_up);
  report_setup(r, setup_s);
  if (!args.trace) return;

  // Traced run: a fresh service whose solve hook stamps each solve start.
  // The queue is FIFO, so the k-th solve start belongs to the k-th
  // submission that entered the queue.
  Schedule traced = make_schedule(args.seed, 4, rate, std::min(args.seconds, 5.0));
  std::vector<Clock::time_point> hook_at(traced.records.size() + 16);
  std::atomic<std::size_t> hooks{0};
  service.reset();
  service = make_service([&] {
    const auto i = hooks.fetch_add(1, std::memory_order_relaxed);
    if (i < hook_at.size()) hook_at[i] = Clock::now();
  });
  const auto traced_origin = Clock::now() + std::chrono::milliseconds(5);
  drive(*service, traced, z, hot, indexes, true, traced_origin);
  service.reset();  // drains: every hook has run
  account(traced, z, hot, hot_expected, indexes, r);

  Tracer tr;
  const double shift = tr.at_ms(traced_origin);
  std::vector<double> starts;
  for (std::size_t k = 0; k < std::min(hooks.load(), hook_at.size()); ++k) {
    starts.push_back(tr.at_ms(hook_at[k]));
  }
  std::sort(starts.begin(), starts.end());
  Samples traced_lat, submit_us, wait_ms, solve_ms, hit_us, miss_ms;
  std::size_t next_start = 0, misordered = 0;
  for (std::size_t i = 0; i < traced.records.size(); ++i) {
    const Record& rec = traced.records[i];
    const auto id = static_cast<std::int64_t>(i);
    const int root = tr.add("request", "api.service", rec.due_ms + shift,
                            (rec.ok ? rec.done_ms : rec.submitted_ms) + shift,
                            -1, id);
    tr.add("service.generator_late", "bench", rec.due_ms + shift,
           rec.send_ms + shift, root, id);
    tr.add("service.submit", "api.service", rec.send_ms + shift,
           rec.submitted_ms + shift, root, id);
    submit_us.add((rec.submitted_ms - rec.send_ms) * 1e3);
    if (rec.enqueued && next_start < starts.size()) {
      // A worker may start the job before try_submit returns; that part of
      // the solve overlaps the submit span and counts as no queue wait.
      const double enqueued = rec.submitted_ms + shift;
      const double done = rec.done_ms + shift;
      const double raw = starts[next_start++];
      if (raw > done) ++misordered;
      const double start = std::clamp(raw, enqueued, std::max(enqueued, done));
      tr.add("service.queue_wait", "api.service", enqueued, start, root, id);
      tr.add("service.solve", "api.solver", start, done, root, id);
      wait_ms.add(start - enqueued);
      solve_ms.add(done - start);
    } else if (rec.ok) {
      tr.add("service.wait", "api.service", rec.submitted_ms + shift,
             rec.done_ms + shift, root, id);
    }
    if (!rec.ok) continue;
    traced_lat.add(rec.done_ms - rec.due_ms);
    if (rec.cached) {
      hit_us.add((rec.submitted_ms - rec.send_ms) * 1e3);
    } else {
      miss_ms.add(rec.done_ms - rec.due_ms);
    }
  }
  if (misordered > 0) {
    r.notes.push_back(std::to_string(misordered) +
                      " solve starts came after their request completed: "
                      "the FIFO mapping of solve_hook stamps slipped");
  }
  r.metric("service.submit_us_p50", submit_us.median(), "us");
  r.metric("service.queue_wait_ms_p50", wait_ms.median(), "ms");
  r.metric("service.queue_wait_ms_p99", wait_ms.quantile(0.99), "ms");
  r.metric("service.solve_ms_p50", solve_ms.median(), "ms");
  r.metric("service.hit_latency_us_p50", hit_us.median(), "us");
  r.metric("service.miss_latency_ms_p50", miss_ms.median(), "ms");

  // Layer replays of the hot set: each request through a Solver (the
  // "solver.solve" span), then through the delegates the Solver calls.
  monge::Solver solver;
  monge::SeaweedEngine engine;
  Samples dispatch, unattributed;
  const std::int64_t base = static_cast<std::int64_t>(traced.records.size());
  for (int k = 0; k < kKinds; ++k) {
    for (int h = 0; h < kHotPerKind; ++h) {
      const Payload& p = hot[k][h];
      const std::int64_t id = base + k * kHotPerKind + h;
      std::uint64_t got = 0;
      int root = -1;
      ++r.attempted;
      with_request(p, [&](const auto& req) {
        decltype(solver.solve(req)) res;
        root = tr.run("solver.solve", "api.solver", -1, id,
                      [&] { res = solver.solve(req); });
        got = answer_hash(res);
      });
      r.check(got == hot_expected[k][h], "solver replay");
      const int replay = tr.begin("replay", "api.solver", -1, id);
      switch (p.kind) {
        case kMultiply:
          tr.run("engine.multiply", "monge.engine", replay, id,
                 [&] { (void)engine.multiply(p.mul.a, p.mul.b); });
          break;
        case kLis: {
          std::vector<std::int32_t> perm;
          monge::Perm kernel;
          tr.run("solver.rank_reduce", "api.solver", replay, id,
                 [&] { perm = monge::lis::rank_reduce_strict(p.lis.seq); });
          tr.run("lis.kernel", "lis", replay, id,
                 [&] { kernel = monge::lis::lis_kernel(perm, engine); });
          tr.run("lis.window_batch", "lis", replay, id, [&] {
            (void)monge::lis::kernel_window_lis_batch(kernel, p.lis.windows);
          });
          break;
        }
        case kLcs: {
          std::vector<std::int64_t> matches;
          tr.run("lcs.match", "lcs", replay, id, [&] {
            matches = monge::lcs::hs_match_sequence(p.lcs.s, p.lcs.t);
          });
          tr.run("lis.length", "lis", replay, id,
                 [&] { (void)monge::lis::lis_length(matches); });
          break;
        }
        default:
          tr.run("query.window_batch", "query", replay, id, [&] {
            (void)p.query.handle.index->window_lis_batch(p.query.windows);
          });
      }
      tr.end(replay);
      const double self = tr.duration(root) - tr.duration(replay);
      dispatch.add(self);
      unattributed.add(self / tr.duration(root));
    }
  }
  for (int i = 0; i < kIndexes; ++i) {
    tr.run("query.build", "query", -1, base + kKinds * kHotPerKind + i, [&] {
      (void)monge::query::SemiLocalIndex::from_sequence(index_seqs[i], engine);
    });
  }
  r.metric("solver.dispatch_self_ms", dispatch.median(), "ms");
  r.metric("solver.rank_reduce_ms", tr.median_self("solver.rank_reduce"), "ms");
  r.metric("lis.kernel_ms", tr.median_self("lis.kernel"), "ms");
  r.metric("lis.window_batch_ms", tr.median_self("lis.window_batch"), "ms");
  r.metric("engine.multiply_ms", tr.median_self("engine.multiply"), "ms");
  r.metric("lcs.match_ms", tr.median_self("lcs.match"), "ms");
  r.metric("query.window_batch_us", tr.median_self("query.window_batch") * 1e3,
           "us");
  r.metric("query.build_ms", tr.median_self("query.build"), "ms");
  report_trace_checks(r, lat, traced_lat, unattributed);
  finish_trace(args, tr, r);
}

}  // namespace perfbench
