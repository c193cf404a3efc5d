// lis-kernel: a closed loop with one caller on a Sequential Solver without
// a pool. Each request is LisRequest{want_kernel, 64 windows} over a fresh
// random sequence (n = 2^14), so the lis merge levels and the dense engine
// do the work; the service and MPC layers stay idle.
#include <memory>
#include <stdexcept>

#include "api/solver.h"
#include "bench.h"
#include "lis/kernel.h"
#include "lis/sequential.h"

namespace perfbench {
namespace {

using monge::LisRequest;
using monge::LisResult;
using monge::Rng;
using monge::Solver;

constexpr std::int64_t kWindows = 64;
constexpr int kSampledWindows = 4;
constexpr int kRateWindow = 8;  // requests per throughput window

LisRequest make_request(std::int64_t n, Rng& rng) {
  LisRequest req;
  req.seq = random_sequence(n, rng);
  req.want_kernel = true;
  req.windows = random_windows(n, kWindows, rng);
  return req;
}

/// LIS against patience sorting, sampled windows against the per-window
/// oracle.
void check_answer(const LisRequest& req, const LisResult& res, Rng& pick,
                  RunResult& r) {
  r.check(res.lis == monge::lis::lis_length(req.seq), "lis length");
  r.check(res.window_lis.size() == req.windows.size(), "window count");
  if (res.window_lis.size() != req.windows.size()) return;
  for (int k = 0; k < kSampledWindows; ++k) {
    const auto i = pick.next_below(req.windows.size());
    const auto [l, rr] = req.windows[i];
    r.check(res.window_lis[i] == monge::lis::lis_window(req.seq, l, rr),
            "window lis");
  }
}

/// Solves one request through the Solver; returns its latency in ms, or a
/// negative value when it failed.
double timed_solve(Solver& solver, const LisRequest& req, LisResult& out,
                   WindowedRate& rate, RunResult& r) {
  return timed_attempt(r, rate, [&] {
    auto res = solver.try_solve(req);
    if (!res.ok()) {
      r.fail(std::string(monge::solve_status_name(res.report.status)) + ": " +
             res.report.message);
      return false;
    }
    out = std::move(res.value);
    return true;
  });
}

}  // namespace

void run_lis_kernel(const Args& args, RunResult& r) {
  const std::int64_t n = args.smoke ? 512 : std::int64_t{1} << 14;
  const int setup_reps = args.smoke ? 2 : 9;

  // Set-up: construct the Solver and warm its arena with one request over
  // the fixed ledger sequence; that request's representation decisions and
  // engine calls are the workload's deterministic counts.
  Rng ledger_rng(kLedgerSeed);
  const LisRequest ledger_req = make_request(n, ledger_rng);
  Samples setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<Solver>(monge::SolverOptions{});
    const auto warm = fresh->try_solve(ledger_req);
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
    if (!warm.ok()) {
      throw std::runtime_error("lis-kernel warm-up failed: " +
                               warm.report.message);
    }
    const auto& rep_stats = warm.report.representation;
    r.count("engine.dense_nodes", rep_stats.dense_nodes);
    r.count("engine.core_sparse_nodes", rep_stats.core_sparse_nodes);
    r.count("engine.blocks_dense", rep_stats.blocks_dense);
    r.count("engine.blocks_copied", rep_stats.blocks_copied);
    r.count("engine.subunit_batch_calls", fresh->engine().subunit_batch_calls());
    r.count("engine.arena_bytes",
            static_cast<std::int64_t>(fresh->engine().arena_capacity()));
    r.count("lis.ledger_lis", warm.value.lis);
    return fresh;
  };
  const std::unique_ptr<Solver> solver = repeat_setup(setup_reps, set_up);

  // Timed closed loop; checks run between requests, outside the timing.
  Rng in = stream_rng(args.seed, 1);
  Rng pick = stream_rng(args.seed, 2);
  Samples lat;
  WindowedRate rate(kRateWindow);
  const auto start = Clock::now();
  while (ms_between(start, Clock::now()) < args.seconds * 1e3) {
    const LisRequest req = make_request(n, in);
    LisResult res;
    const double ms = timed_solve(*solver, req, res, rate, r);
    if (ms < 0) continue;
    lat.add(ms);
    check_answer(req, res, pick, r);
  }
  report_latency(r, lat);
  r.metric("throughput_rps", rate.median(), "1/s");
  (void)repeat_setup(setup_reps, set_up);
  report_setup(r, setup_s);
  if (!args.trace) return;

  // Traced run: each request is solved through the Solver (the "request"
  // span), then replayed layer by layer through the Solver's delegates on a
  // second engine with the same options. Solver dispatch self time is the
  // request minus its replayed delegates.
  Tracer tr;
  monge::SeaweedEngine engine(solver->options().engine);
  (void)monge::lis::lis_kernel(monge::lis::rank_reduce_strict(ledger_req.seq),
                               engine);  // arena warm-up
  const int traced = args.smoke ? 3 : 24;
  Rng tin = stream_rng(args.seed, 3);
  Samples traced_lat, dispatch, unattributed;
  WindowedRate traced_rate(kRateWindow);
  for (int i = 0; i < traced; ++i) {
    const LisRequest req = make_request(n, tin);
    LisResult res;
    const double t0 = tr.now_ms();
    const double ms = timed_solve(*solver, req, res, traced_rate, r);
    const int root = tr.add("request", "api.solver", t0, tr.now_ms(), -1, i);
    if (ms < 0) continue;
    traced_lat.add(tr.duration(root));
    check_answer(req, res, pick, r);

    const int replay = tr.begin("replay", "api.solver", -1, i);
    std::vector<std::int32_t> perm;
    monge::Perm kernel;
    std::vector<std::int64_t> windows;
    const int rank = tr.run("solver.rank_reduce", "api.solver", replay, i, [&] {
      perm = monge::lis::rank_reduce_strict(req.seq);
    });
    const auto calls0 = engine.subunit_batch_calls();
    const int kern = tr.run("lis.kernel", "lis", replay, i, [&] {
      kernel = monge::lis::lis_kernel(perm, engine);
    });
    r.count("engine.subunit_batch_calls", engine.subunit_batch_calls() - calls0);
    const int win = tr.run("lis.window_batch", "lis", replay, i, [&] {
      windows = monge::lis::kernel_window_lis_batch(kernel, req.windows);
    });
    tr.end(replay);
    r.check(kernel == res.kernel && windows == res.window_lis, "replay");

    const double self = tr.duration(root) - tr.duration(rank) -
                        tr.duration(kern) - tr.duration(win);
    dispatch.add(self);
    unattributed.add(self / tr.duration(root));
  }
  r.metric("solver.rank_reduce_ms", tr.median_self("solver.rank_reduce"), "ms");
  r.metric("solver.dispatch_self_ms", dispatch.median(), "ms");
  r.metric("lis.kernel_ms", tr.median_self("lis.kernel"), "ms");
  r.metric("lis.window_batch_ms", tr.median_self("lis.window_batch"), "ms");
  report_trace_checks(r, lat, traced_lat, unattributed);
  finish_trace(args, tr, r);
}

}  // namespace perfbench
