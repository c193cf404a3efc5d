// monge::SolverService — the asynchronous, deduplicating serving tier.
//
// Solver (api/solver.h) is deliberately synchronous and single-tenant: one
// engine arena, one cluster, one request at a time. SolverService is the
// layer the ROADMAP's "traffic from millions of users" north star needs on
// top of it: submit(Request) -> std::future<Result> over a pool of N
// workers, EACH owning a private Solver (per-worker engines, so arenas
// never contend and MpcSim clusters never interleave requests), with
//
//   * bounded admission — a request queue of configurable depth. When it
//     is full, submit() either blocks until a slot frees
//     (AdmissionPolicy::kBlock) or refuses immediately
//     (AdmissionPolicy::kReject: submit throws OverloadedError, try_submit
//     returns a SolveReport with SolveStatus::kOverloaded). Coalesced and
//     cache-served requests never consume a queue slot.
//
//   * request deduplication — every request is keyed by a 128-bit digest
//     of its payload (request_digest, api/request.h). Concurrent identical requests
//     coalesce onto ONE underlying solve: the first submit enqueues a job,
//     later identical submits just attach a waiter to the in-flight entry
//     and are fulfilled from the same computation. Identical permutations
//     or sequences submitted by many users are solved exactly once — the
//     request-level analogue of the semi-local "index once, query many"
//     direction (Gawrychowski–Mozes–Weimann, arXiv 1307.2313).
//
//   * a result cache — completed results enter an LRU-bounded,
//     digest-keyed cache (cache_capacity entries per request type); a
//     later identical request is fulfilled immediately with a copy, bit-
//     identical to a fresh solve (pinned in tests/test_service.cpp).
//     try_submit marks such answers report.cached. Degraded results
//     (MpcSim fallback) are NOT cached: their shape (rounds, reports)
//     differs from what a healthy backend returns.
//
// submit() and try_submit() differ exactly like Solver::solve() and
// Solver::try_solve(): a submit() future rethrows the monge::Error
// taxonomy from get(), while a try_submit() future always resolves to a
// TrySolveResult whose SolveReport classifies the outcome — including the
// PR 6 chaos path, where an unrecoverable MpcSim fault degrades the
// request to the Sequential backend on the worker and the report says so.
// Because the two flavors have different failure semantics (throw vs
// degrade), they coalesce only with in-flight requests of the SAME flavor;
// both share the result cache.
//
// Request types: submit() and try_submit() are templates over the types
// listed in RequestTypes (api/request.h), and the service keeps one lane
// (in-flight table plus LRU cache) per listed type. Adding a request type
// touches neither this file nor service.cpp; see docs/ARCHITECTURE.md
// ("Adding a request type").
//
// Lifecycle: the destructor stops admitting, wakes blocked submitters
// (they observe the shutdown and refuse), DRAINS every already-admitted
// job, and joins the workers — an admitted future is always fulfilled
// (the ThreadPool shutdown-drain contract, util/thread_pool.h).
//
// Thread safety: all public members are safe to call from any number of
// threads concurrently, except the destructor, which must not race other
// calls (standard object lifetime rules).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace monge {

/// What submit() does when the bounded queue is at queue_depth.
enum class AdmissionPolicy {
  /// Block the submitting thread until a slot frees (backpressure).
  kBlock = 0,
  /// Refuse immediately: submit() throws OverloadedError, try_submit()
  /// returns SolveStatus::kOverloaded (load shedding).
  kReject = 1,
};

/// Construction-time configuration of a SolverService. Validated by the
/// constructor; invalid values throw monge::InvalidRequestError.
struct ServiceOptions {
  /// Per-worker Solver configuration (backend, engine knobs, MPC
  /// provisioning, chaos plans). Every worker constructs its own Solver
  /// from this, so engine arenas and clusters are never shared.
  SolverOptions solver{};
  /// Worker count; 0 picks hardware_concurrency (at least 1).
  unsigned workers = 0;
  /// Bounded request-queue depth (admitted-but-unstarted jobs). Must be
  /// >= 1. Coalesced/cached requests never occupy a slot.
  std::size_t queue_depth = 256;
  /// Full-queue behavior of submit()/try_submit().
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Result-cache capacity in entries PER request type (each type listed
  /// in RequestTypes has its own LRU map). 0 disables caching; in-flight
  /// dedup still applies.
  std::size_t cache_capacity = 1024;
  /// Test/telemetry seam: when set, every worker calls this immediately
  /// before each underlying solve (on the worker thread). Must not throw.
  /// The dedup and admission tests use it to hold workers at a barrier.
  std::function<void()> solve_hook;
};

/// Monotonic counters of one SolverService, returned by stats() as a
/// consistent snapshot.
struct ServiceStats {
  std::int64_t submitted = 0;    ///< submit/try_submit calls accepted into
                                 ///< the service (any outcome).
  std::int64_t admitted = 0;     ///< jobs enqueued for a worker.
  std::int64_t rejected = 0;     ///< admissions refused (queue full or
                                 ///< shutdown).
  std::int64_t coalesced = 0;    ///< requests attached to an in-flight
                                 ///< identical computation.
  std::int64_t cache_hits = 0;   ///< requests served from the result cache.
  std::int64_t solves = 0;       ///< underlying Solver solve/try_solve
                                 ///< calls actually executed.
  std::int64_t solve_errors = 0; ///< solves that ended in an exception
                                 ///< (submit flavor) or a non-ok report.

  friend bool operator==(const ServiceStats&, const ServiceStats&) = default;
};

/// Outcome of try_submit: an admission report plus, when admitted, a
/// future resolving to the request's TrySolveResult.
template <typename Result>
struct Submission {
  /// Valid iff admitted(): resolves to value + SolveReport, never throws
  /// from get() for taxonomy errors (kInternalError covers the rest).
  std::future<TrySolveResult<Result>> future;
  /// Admission outcome: kOk (queued, coalesced, or cache-served) or
  /// kOverloaded (queue full under kReject, or shutting down — `future`
  /// is invalid and the request was not accepted).
  SolveReport admission;

  bool admitted() const { return admission.ok(); }
};

class SolverService {
 public:
  /// Validates the options (InvalidRequestError on bad knobs; the nested
  /// SolverOptions are validated by each worker's Solver constructor, so
  /// invalid solver knobs also throw here, from the first worker), then
  /// starts the workers.
  explicit SolverService(ServiceOptions options = {});

  /// Stops admitting, wakes blocked submitters, drains every admitted job
  /// and joins the workers. Every future returned by submit/try_submit is
  /// fulfilled before the destructor returns.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Asynchronous Solver::solve(): the future resolves to the result, or
  /// rethrows the monge::Error taxonomy from get(). Served from the
  /// result cache or an in-flight identical computation when possible;
  /// otherwise admitted under the configured policy — throws
  /// OverloadedError when refused (kReject and full, or shutting down).
  template <SolverRequest R>
  std::future<typename R::Result> submit(R req) {
    return submit_impl<false>(std::move(req));
  }

  /// Asynchronous Solver::try_solve(): never throws for taxonomy errors.
  /// Admission refusals come back synchronously in Submission::admission
  /// (SolveStatus::kOverloaded); admitted requests resolve to the worker's
  /// TrySolveResult — including MpcSim degradation, exactly as
  /// Solver::try_solve reports it. Cache hits resolve immediately with
  /// report.cached = true.
  template <SolverRequest R>
  Submission<typename R::Result> try_submit(R req) {
    return submit_impl<true>(std::move(req));
  }

  /// A consistent snapshot of the service counters.
  ServiceStats stats() const;

  /// The options, exactly as validated at construction.
  const ServiceOptions& options() const { return options_; }

  /// Number of running workers (resolved from options().workers).
  unsigned workers() const { return pool_->thread_count(); }

 private:
  /// One in-flight computation: the promises of every coalesced waiter of
  /// one flavor. Fulfilled (and erased) by the worker that runs the job.
  template <typename Result>
  struct Flight {
    std::vector<std::promise<Result>> solve_waiters;
    std::vector<std::promise<TrySolveResult<Result>>> try_waiters;
  };

  struct DigestHash {
    std::size_t operator()(const RequestDigest& d) const {
      return static_cast<std::size_t>(d.lo ^ (d.hi * 0x9e3779b97f4a7c15ULL));
    }
  };

  /// Per-request-type state: the in-flight table (keyed by digest with the
  /// submit/try flavor mixed in — the flavors have different failure
  /// semantics, so they never coalesce with each other) and the LRU result
  /// cache (keyed by the pure digest — both flavors share values).
  template <typename R>
  struct Lane {
    using Result = typename R::Result;
    using Entry = std::pair<RequestDigest, Result>;
    std::unordered_map<RequestDigest, std::shared_ptr<Flight<Result>>,
                       DigestHash>
        in_flight;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<RequestDigest, typename std::list<Entry>::iterator,
                       DigestHash>
        cache;
  };

  /// One Lane per listed request type.
  template <typename List>
  struct LanesOf;
  template <typename... Rs>
  struct LanesOf<RequestList<Rs...>> {
    using type = std::tuple<Lane<Rs>...>;
  };

  template <typename R>
  Lane<R>& lane() {
    return std::get<Lane<R>>(lanes_);
  }

  /// What submit (IsTry = false) or try_submit (IsTry = true) returns.
  template <bool IsTry, typename R>
  using SubmitReturn =
      std::conditional_t<IsTry, Submission<typename R::Result>,
                         std::future<typename R::Result>>;

  /// Shared submit machinery; IsTry selects the flavor.
  template <bool IsTry, typename R>
  SubmitReturn<IsTry, R> submit_impl(R req);

  /// Adds one waiter of the IsTry flavor to `flight` and returns its
  /// future (wrapped in an admitted Submission for try_submit).
  template <bool IsTry, typename R>
  SubmitReturn<IsTry, R> attach_waiter(Flight<typename R::Result>& flight);

  /// Runs one admitted job on a worker's Solver and fulfills its waiters.
  template <bool IsTry, typename R>
  void run_job(Solver& solver, const R& req, RequestDigest key,
               RequestDigest flight_key);

  template <typename R>
  const typename R::Result* cache_find_locked(RequestDigest key);
  template <typename R>
  void cache_insert_locked(RequestDigest key, const typename R::Result& value);

  void worker_loop();

  ServiceOptions options_;
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< workers: a job or shutdown.
  std::condition_variable space_cv_;  ///< blocked submitters: a free slot.
  std::deque<std::function<void(Solver&)>> queue_;
  bool shutdown_ = false;
  ServiceStats stats_;
  /// Cached BuildIndexResults keep their handles (and through them the
  /// shared indexes) alive while hot, so identical builds from many
  /// clients resolve to ONE index.
  typename LanesOf<RequestTypes>::type lanes_;
  /// Last member: its destructor joins the worker loops, which may touch
  /// every field above while draining.
  std::unique_ptr<ThreadPool> pool_;
};

// ---------------------------------------------------------------------------
// Template definitions: instantiated once per listed request type.
// ---------------------------------------------------------------------------

template <typename R>
const typename R::Result* SolverService::cache_find_locked(
    RequestDigest key) {
  auto& ln = lane<R>();
  const auto it = ln.cache.find(key);
  if (it == ln.cache.end()) return nullptr;
  ln.lru.splice(ln.lru.begin(), ln.lru, it->second);  // refresh recency
  return &it->second->second;
}

template <typename R>
void SolverService::cache_insert_locked(RequestDigest key,
                                        const typename R::Result& value) {
  if (options_.cache_capacity == 0) return;
  auto& ln = lane<R>();
  if (const auto it = ln.cache.find(key); it != ln.cache.end()) {
    it->second->second = value;
    ln.lru.splice(ln.lru.begin(), ln.lru, it->second);
    return;
  }
  ln.lru.emplace_front(key, value);
  ln.cache[key] = ln.lru.begin();
  if (ln.cache.size() > options_.cache_capacity) {
    ln.cache.erase(ln.lru.back().first);
    ln.lru.pop_back();
  }
}

template <bool IsTry, typename R>
SolverService::SubmitReturn<IsTry, R> SolverService::attach_waiter(
    Flight<typename R::Result>& flight) {
  if constexpr (IsTry) {
    std::promise<TrySolveResult<typename R::Result>> p;
    Submission<typename R::Result> sub;
    sub.future = p.get_future();
    sub.admission.backend = options_.solver.backend;
    flight.try_waiters.push_back(std::move(p));
    return sub;
  } else {
    std::promise<typename R::Result> p;
    auto fut = p.get_future();
    flight.solve_waiters.push_back(std::move(p));
    return fut;
  }
}

// ---------------------------------------------------------------------------
// Jobs.
// ---------------------------------------------------------------------------

template <bool IsTry, typename R>
void SolverService::run_job(Solver& solver, const R& req, RequestDigest key,
                            RequestDigest flight_key) {
  using Result = typename R::Result;
  if (options_.solve_hook) options_.solve_hook();
  if constexpr (!IsTry) {
    Result value{};
    std::exception_ptr error;
    try {
      value = solver.solve(req);
    } catch (...) {
      error = std::current_exception();
    }
    std::vector<std::promise<Result>> waiters;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.solves;
      if (error) ++stats_.solve_errors;
      auto& ln = lane<R>();
      const auto it = ln.in_flight.find(flight_key);
      waiters = std::move(it->second->solve_waiters);
      ln.in_flight.erase(it);
      // Errors are never cached: faults and space overruns depend on
      // mutable cluster state, so a retry can legitimately succeed.
      if (!error) cache_insert_locked<R>(key, value);
    }
    for (auto& p : waiters) {
      if (error) {
        p.set_exception(error);
      } else {
        p.set_value(value);
      }
    }
  } else {
    const TrySolveResult<Result> res = solver.try_solve(req);
    std::vector<std::promise<TrySolveResult<Result>>> waiters;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.solves;
      if (!res.report.ok()) ++stats_.solve_errors;
      auto& ln = lane<R>();
      const auto it = ln.in_flight.find(flight_key);
      waiters = std::move(it->second->try_waiters);
      ln.in_flight.erase(it);
      // Degraded values are correct but shaped like the fallback backend
      // (zero rounds/reports), so they must not satisfy future requests
      // that expect a healthy MpcSim answer.
      if (res.report.ok() && !res.report.degraded) {
        cache_insert_locked<R>(key, res.value);
      }
    }
    for (auto& p : waiters) p.set_value(res);
  }
}

// ---------------------------------------------------------------------------
// Admission.
// ---------------------------------------------------------------------------

template <bool IsTry, typename R>
SolverService::SubmitReturn<IsTry, R> SolverService::submit_impl(R req) {
  using Result = typename R::Result;
  using Ret = SubmitReturn<IsTry, R>;

  const RequestDigest key = request_digest(req);
  // The submit and try_submit flavors fail differently (throwing future vs
  // degrading report), so they never coalesce with each other: the
  // in-flight table is keyed with the flavor mixed in. The result cache
  // uses the pure digest — values are shared.
  RequestDigest flight_key = key;
  if constexpr (IsTry) flight_key.hi ^= 0x7472795f666c7476ULL;

  const auto reject = [&](const std::string& why) -> Ret {
    ++stats_.rejected;
    if constexpr (IsTry) {
      Submission<Result> sub;
      sub.admission.status = SolveStatus::kOverloaded;
      sub.admission.backend = options_.solver.backend;
      sub.admission.message = why;
      return sub;
    } else {
      throw OverloadedError(why);
    }
  };

  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.submitted;
  for (;;) {
    if (shutdown_) return reject("SolverService is shutting down");

    // 1) Completed identical request in the result cache.
    if (const Result* hit = cache_find_locked<R>(key)) {
      ++stats_.cache_hits;
      if constexpr (IsTry) {
        TrySolveResult<Result> res;
        res.value = *hit;
        res.report.backend = options_.solver.backend;
        res.report.cached = true;
        std::promise<TrySolveResult<Result>> p;
        p.set_value(std::move(res));
        Submission<Result> sub;
        sub.future = p.get_future();
        sub.admission.backend = options_.solver.backend;
        return sub;
      } else {
        std::promise<Result> p;
        p.set_value(*hit);
        return p.get_future();
      }
    }

    // 2) Identical request already in flight: attach, consume no slot.
    auto& ln = lane<R>();
    if (const auto it = ln.in_flight.find(flight_key);
        it != ln.in_flight.end()) {
      ++stats_.coalesced;
      return attach_waiter<IsTry, R>(*it->second);
    }

    // 3) Admission control on the bounded queue.
    if (queue_.size() < options_.queue_depth) break;
    if (options_.admission == AdmissionPolicy::kReject) {
      return reject("queue full (depth " +
                    std::to_string(options_.queue_depth) + ")");
    }
    // Block until a worker frees a slot, then re-run the whole ladder:
    // while we slept the request may have become in-flight or cached.
    space_cv_.wait(lock);
  }

  // 4) Admit: one flight, one queued job.
  auto flight = std::make_shared<Flight<Result>>();
  Ret ret = attach_waiter<IsTry, R>(*flight);
  lane<R>().in_flight.emplace(flight_key, std::move(flight));
  ++stats_.admitted;
  queue_.push_back(
      [this, req = std::move(req), key, flight_key](Solver& solver) {
        run_job<IsTry, R>(solver, req, key, flight_key);
      });
  lock.unlock();
  queue_cv_.notify_one();
  return ret;
}

}  // namespace monge
