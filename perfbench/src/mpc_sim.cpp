// mpc-sim: a closed loop with one caller on an MpcSim Solver that
// auto-provisions its cluster (default delta, one simulation thread: with
// more, every round waits for the slowest CPU, which on a shared host makes
// runs several times noisier and about 2.5x slower at this size).
// Requests are LisRequest{want_kernel} over random sequences of one size
// (n = 2^11), so the cluster is provisioned once, during set-up. This is
// the only workload that exercises core + mpc; per-round cost dominates.
#include <memory>
#include <stdexcept>

#include "api/solver.h"
#include "bench.h"
#include "lis/mpc_lis.h"

namespace perfbench {
namespace {

using monge::LisRequest;
using monge::Rng;
using monge::Solver;

constexpr int kLedgerRequests = 2;
constexpr int kRateWindow = 4;  // requests per throughput window

monge::SolverOptions mpc_options() {
  monge::SolverOptions o;
  o.backend = monge::SolverBackend::kMpcSim;
  o.cluster.threads = 1;
  return o;
}

/// Cluster counters of one request, taken from freshly reset stats.
struct RequestCost {
  monge::mpc::ClusterStats stats;
  std::int64_t merge_levels = 0;
};

}  // namespace

void run_mpc_sim(const Args& args, RunResult& r) {
  const std::int64_t n = args.smoke ? 128 : std::int64_t{1} << 11;
  const int setup_reps = args.smoke ? 1 : 2;

  Rng ledger_rng(kLedgerSeed);
  const monge::MultiplyRequest warm{monge::Perm::random(n, ledger_rng),
                                    monge::Perm::random(n, ledger_rng)};
  std::vector<LisRequest> ledger;
  for (int i = 0; i < kLedgerRequests; ++i) {
    ledger.push_back(LisRequest{random_sequence(n, ledger_rng), true, {}});
  }

  // Set-up: construct the Solver and provision its cluster with one full
  // multiply of the workload's size. Its report supplies the core counts.
  Samples setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<Solver>(mpc_options());
    const auto res = fresh->try_solve(warm);
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
    if (!res.ok()) {
      throw std::runtime_error("mpc-sim warm-up failed: " + res.report.message);
    }
    const auto& rep = res.value.report;
    r.count("core.rounds", rep.rounds);
    r.count("core.levels", rep.levels);
    r.count("core.lines", rep.lines);
    r.count("core.crossed_boxes", rep.crossed_boxes);
    r.count("core.interesting_points", rep.interesting_points);
    r.count("core.rank_queries", rep.rank_queries);
    r.count("core.max_machine_words", rep.max_machine_words);
    return fresh;
  };
  const std::unique_ptr<Solver> solver = repeat_setup(setup_reps, set_up);
  r.metric("mpc.machines", static_cast<double>(solver->cluster()->machines()),
           "count");

  Solver sequential;  // the verification oracle
  // One request; returns its latency, or < 0 on failure.
  const auto solve = [&](const LisRequest& req, RequestCost& cost,
                         WindowedRate& rate) {
    solver->cluster()->reset_stats();
    monge::TrySolveResult<monge::LisResult> res;
    const double ms = timed_attempt(r, rate, [&] {
      res = solver->try_solve(req);
      if (!res.ok()) {
        r.fail(std::string(monge::solve_status_name(res.report.status)) +
               ": " + res.report.message);
        return false;
      }
      if (res.report.degraded) r.fail("degraded: " + res.report.message);
      return !res.report.degraded;
    });
    if (ms < 0) return ms;
    cost.stats = solver->cluster()->stats();
    cost.merge_levels = res.value.merge_levels;
    const auto want = sequential.solve(req);
    r.check(res.value.lis == want.lis, "lis vs sequential");
    r.check(res.value.kernel == want.kernel, "kernel vs sequential");
    r.check(res.value.rounds == cost.stats.rounds, "rounds vs cluster");
    return ms;
  };

  Rng in = stream_rng(args.seed, 1);
  Samples lat, round_us;
  WindowedRate rate(kRateWindow);
  const auto start = Clock::now();
  while (ms_between(start, Clock::now()) < args.seconds * 1e3) {
    const LisRequest req{random_sequence(n, in), true, {}};
    RequestCost cost;
    const double ms = solve(req, cost, rate);
    if (ms < 0) continue;
    lat.add(ms);
    if (cost.stats.rounds > 0) {
      round_us.add(ms * 1e3 / static_cast<double>(cost.stats.rounds));
    }
  }
  report_latency(r, lat);
  r.metric("throughput_rps", rate.median(), "1/s");
  r.metric("mpc.round_us", round_us.median(), "us");
  (void)repeat_setup(setup_reps, set_up);
  report_setup(r, setup_s);

  // The paper's headline numbers: means per request over the fixed ledger
  // list. In the traced run these requests are also replayed through
  // lis::mpc_lis directly on the Solver's cluster.
  Tracer tr;
  Samples traced_lat, dispatch, unattributed;
  WindowedRate ledger_rate(kRateWindow);
  RequestCost total;
  for (int i = 0; i < kLedgerRequests; ++i) {
    const auto& req = ledger[static_cast<std::size_t>(i)];
    RequestCost cost;
    const double t0 = tr.now_ms();
    const double ms = solve(req, cost, ledger_rate);
    const int root = tr.add("request", "api.solver", t0, tr.now_ms(), -1, i);
    if (ms < 0) {
      throw std::runtime_error("mpc-sim ledger request failed");
    }
    total.stats.rounds += cost.stats.rounds;
    total.stats.total_comm_words += cost.stats.total_comm_words;
    total.stats.max_machine_words += cost.stats.max_machine_words;
    total.stats.max_resident_words += cost.stats.max_resident_words;
    total.stats.recovery.recovery_rounds += cost.stats.recovery.recovery_rounds;
    total.merge_levels += cost.merge_levels;
    if (!args.trace) continue;

    traced_lat.add(tr.duration(root));
    solver->cluster()->reset_stats();
    const int replay = tr.begin("replay", "api.solver", -1, i);
    monge::lis::MpcLisResult direct;
    const int lis_span = tr.run("mpc.lis", "core+mpc", replay, i, [&] {
      direct = monge::lis::mpc_lis(*solver->cluster(), req.seq);
    });
    tr.end(replay);
    r.check(direct.rounds == cost.stats.rounds &&
                solver->cluster()->stats() == cost.stats,
            "direct mpc_lis costs match the Solver's");
    const double self = tr.duration(root) - tr.duration(lis_span);
    dispatch.add(self);
    unattributed.add(self / tr.duration(root));
  }
  r.count("mpc.ledger_rounds", total.stats.rounds);
  r.count("mpc.ledger_comm_words", total.stats.total_comm_words);
  r.count("mpc.ledger_max_machine_words", total.stats.max_machine_words);
  r.count("mpc.ledger_max_resident_words", total.stats.max_resident_words);
  r.count("mpc.recovery_rounds", total.stats.recovery.recovery_rounds);
  r.count("lis.ledger_mpc_merge_levels", total.merge_levels);
  const auto mean = [](std::int64_t v) {
    return static_cast<double>(v) / kLedgerRequests;
  };
  r.metric("mpc_rounds", mean(total.stats.rounds), "rounds");
  r.metric("mpc_comm_words", mean(total.stats.total_comm_words), "words");
  r.metric("mpc_max_machine_words", mean(total.stats.max_machine_words),
           "words");
  r.metric("mpc.max_resident_words", mean(total.stats.max_resident_words),
           "words");
  r.metric("lis.mpc_merge_levels", mean(total.merge_levels), "count");
  if (!args.trace) return;

  r.metric("solver.dispatch_self_ms", dispatch.median(), "ms");
  r.metric("mpc.lis_ms", tr.median_self("mpc.lis"), "ms");
  report_trace_checks(r, lat, traced_lat, unattributed);
  finish_trace(args, tr, r);
}

}  // namespace perfbench
