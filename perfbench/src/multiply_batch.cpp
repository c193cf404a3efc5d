// multiply-batch: a closed loop with one caller running Solver::solve_batch
// over batches of 8 full n = 2^14 pairs, on an engine ThreadPool of
// nproc / 2 workers, never fewer than 2 (the caller helps). Batches are
// homogeneous: dense random and near-identity (core ratio ~1/64) come in a
// 3:1 ratio, so the pool striping and the core-sparse dispatch both carry
// load.
//
// Known defect, reported rather than avoided: with a pool and the default
// core_density_cutoff, the near-identity batches at this size throw
// std::out_of_range (map::at) from the engine, so failed_share reads ~0.25.
//
// A run makes a fixed number of attempts, sized from --seconds, rather than
// attempting until the time is up: the near-identity batches fail every
// time, so a time-bounded count of failures would move with the host's
// speed, while a fixed count makes attempted and failed repeat exactly.
#include <memory>
#include <thread>

#include "api/solver.h"
#include "bench.h"
#include "monge/core_sparse.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using monge::MultiplyRequest;
using monge::Perm;
using monge::Rng;
using monge::SeaweedEngine;

constexpr int kPairs = 8;
constexpr int kDenseBatches = 6;
constexpr int kNearBatches = 2;
constexpr std::int64_t kCoreDenom = 64;  // core ratio ~1/64
constexpr int kRateWindow = 16;  // batches per throughput window
/// Attempts per second of --seconds: about 60 batches a second (a dense
/// batch takes ~20 ms, a failing near-identity one far less) on a shared
/// 4-vCPU x86-64 host (Xeon, AVX2).
constexpr double kAttemptsPerSecond = 60.0;

struct Batch {
  bool near = false;
  std::vector<MultiplyRequest> reqs;
  std::vector<Perm> expected;  // products from the dense oracle engine
};

/// Identity with n/64 random rows permuted among themselves: a core of
/// ratio 1/64 scattered over the whole range, so the core-sparse probe
/// decomposes nodes at every level instead of copying one tiny block.
Perm near_identity(std::int64_t n, Rng& rng) {
  auto p = Perm::identity(n).row_to_col();
  const auto order = rng.permutation(n);
  const std::vector<std::int32_t> rows(
      order.begin(), order.begin() + std::max<std::int64_t>(2, n / kCoreDenom));
  std::vector<std::int32_t> cols = rows;
  rng.shuffle(cols);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    p[static_cast<std::size_t>(rows[i])] = cols[i];
  }
  return Perm::from_rows(std::move(p), n);
}

Batch make_batch(std::int64_t n, bool near, Rng& rng) {
  Batch b;
  b.near = near;
  for (int i = 0; i < kPairs; ++i) {
    MultiplyRequest req;
    req.a = near ? near_identity(n, rng) : Perm::random(n, rng);
    req.b = near ? near_identity(n, rng) : Perm::random(n, rng);
    b.reqs.push_back(std::move(req));
  }
  return b;
}

/// The correctness oracle: a core_density_cutoff = 0 engine with no pool.
void fill_expected(Batch& b, SeaweedEngine& oracle) {
  b.expected.clear();
  for (const auto& req : b.reqs) b.expected.push_back(oracle.multiply(req.a, req.b));
}

std::vector<monge::PermPairView> views(const Batch& b) {
  std::vector<monge::PermPairView> v;
  for (const auto& req : b.reqs) {
    v.emplace_back(req.a.row_to_col(), req.b.row_to_col());
  }
  return v;
}

/// 3:1 dense:near-identity, one near-identity batch at a seeded position in
/// every block of four.
class KindSchedule {
 public:
  explicit KindSchedule(Rng rng) : rng_(rng) {}
  bool next_near() {
    if (slot_ % 4 == 0) near_at_ = rng_.next_below(4);
    return slot_++ % 4 == near_at_;
  }

 private:
  Rng rng_;
  std::uint64_t slot_ = 0;
  std::uint64_t near_at_ = 0;
};

void count_representation(RunResult& r, const std::string& prefix,
                          const monge::RepresentationStats& s) {
  r.count(prefix + "dense_nodes", s.dense_nodes);
  r.count(prefix + "core_sparse_nodes", s.core_sparse_nodes);
  r.count(prefix + "blocks_dense", s.blocks_dense);
  r.count(prefix + "blocks_copied", s.blocks_copied);
}

}  // namespace

void run_multiply_batch(const Args& args, RunResult& r) {
  const std::int64_t n = args.smoke ? 512 : std::int64_t{1} << 14;
  const int setup_reps = args.smoke ? 2 : 9;
  // Half the CPUs, so the host's own work does not preempt a stripe of
  // every batch; at least two, because the engine stripes a batch and
  // forks its recursion only on a pool of two or more threads.
  const unsigned workers = std::max(2u, std::thread::hardware_concurrency() / 2);

  // Inputs (not timed): the run's batches and the fixed ledger batches.
  Rng in = stream_rng(args.seed, 1);
  std::vector<Batch> dense, near;
  for (int i = 0; i < kDenseBatches; ++i) dense.push_back(make_batch(n, false, in));
  for (int i = 0; i < kNearBatches; ++i) near.push_back(make_batch(n, true, in));
  Rng ledger_rng(kLedgerSeed);
  Batch ledger_dense = make_batch(n, false, ledger_rng);
  Batch ledger_near = make_batch(n, true, ledger_rng);

  // Verification oracle and the deterministic counts (not timed): the
  // representation decisions of the ledger batches on a pool-free engine
  // with the default cutoff.
  SeaweedEngine oracle({.core_density_cutoff = 0.0});
  for (auto* set : {&dense, &near}) {
    for (auto& b : *set) fill_expected(b, oracle);
  }
  fill_expected(ledger_dense, oracle);
  fill_expected(ledger_near, oracle);
  SeaweedEngine serial;
  for (const Batch* b : {&ledger_dense, &ledger_near}) {
    const auto before = serial.representation_stats();
    const auto out = serial.multiply_raw_batch(views(*b));
    count_representation(r, b->near ? "near_batch." : "dense_batch.",
                         serial.representation_stats() - before);
    for (int i = 0; i < kPairs; ++i) {
      r.check(out[static_cast<std::size_t>(i)] ==
                  b->expected[static_cast<std::size_t>(i)].row_to_col(),
              "serial default-cutoff engine");
    }
  }
  const auto totals = serial.representation_stats();
  count_representation(r, "engine.", totals);
  const auto blocks = totals.blocks_copied + totals.blocks_dense;
  r.metric("core_sparse.copied_block_share",
           blocks > 0 ? static_cast<double>(totals.blocks_copied) /
                            static_cast<double>(blocks)
                      : 0.0,
           "share");

  // Set-up: pool + Solver, arena warmed with the ledger dense batch. Its
  // representation counts must match the pool-free engine's exactly.
  Samples setup_s;
  struct Backend {
    std::unique_ptr<monge::ThreadPool> pool;  // outlives the solver
    std::unique_ptr<monge::Solver> solver;
  };
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    Backend b;
    b.pool = std::make_unique<monge::ThreadPool>(workers);
    monge::SolverOptions opts;
    opts.engine.pool = b.pool.get();
    b.solver = std::make_unique<monge::Solver>(opts);
    const auto before = b.solver->engine().representation_stats();
    const auto out = b.solver->solve_batch(ledger_dense.reqs);
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
    count_representation(r, "dense_batch.",
                         b.solver->engine().representation_stats() - before);
    r.count("engine.arena_bytes",
            static_cast<std::int64_t>(b.solver->engine().arena_capacity()));
    for (int i = 0; i < kPairs; ++i) {
      r.check(out[static_cast<std::size_t>(i)].c ==
                  ledger_dense.expected[static_cast<std::size_t>(i)],
              "pooled warm-up");
    }
    return b;
  };
  const Backend backend = repeat_setup(setup_reps, set_up);
  monge::Solver* const solver = backend.solver.get();
  r.metric("engine.pool_workers", workers, "count");

  // One batch through the Solver; returns its latency, or < 0 on failure.
  const auto solve = [&](const Batch& b, WindowedRate& rate) {
    std::vector<monge::MultiplyResult> out;
    const double ms = timed_attempt(r, rate, [&] {
      out = solver->solve_batch(b.reqs);
      return true;
    });
    if (ms < 0) return ms;
    bool ok = out.size() == b.expected.size();
    for (std::size_t i = 0; ok && i < out.size(); ++i) {
      ok = out[i].c == b.expected[i];
    }
    r.check(ok, "batch product");
    return ok ? ms : -1.0;
  };

  KindSchedule kinds(stream_rng(args.seed, 2));
  Samples lat, lat_dense;
  WindowedRate rate(kRateWindow);
  std::size_t next_dense = 0, next_near = 0;
  // Whole blocks of four, so every run holds the 3:1 ratio exactly.
  const auto attempts =
      4 * static_cast<std::int64_t>(std::ceil(args.seconds * kAttemptsPerSecond / 4));
  for (std::int64_t i = 0; i < attempts; ++i) {
    const bool is_near = kinds.next_near();
    const Batch& b = is_near ? near[next_near++ % near.size()]
                             : dense[next_dense++ % dense.size()];
    const double ms = solve(b, rate);
    if (ms < 0) continue;
    lat.add(ms);
    if (!is_near) lat_dense.add(ms);
  }
  report_latency(r, lat);
  r.metric("throughput_rps", rate.median(), "1/s");
  r.metric("dense_batch_p50_ms", lat_dense.median(), "ms");
  (void)repeat_setup(setup_reps, set_up);
  report_setup(r, setup_s);
  if (!args.trace) return;

  // Traced run: each batch goes through the Solver (the "request" span) and
  // is replayed on a pooled engine with the Solver's options (the delegate
  // Solver::solve_batch calls). Separate probe spans time the same dense
  // batch without the pool, one dense pair alone, and one near-identity
  // pair through core_sparse_multiply.
  Tracer tr;
  SeaweedEngine pooled(solver->options().engine);
  (void)pooled.multiply_raw_batch(views(ledger_dense));  // arena warm-up
  KindSchedule traced_kinds(stream_rng(args.seed, 3));
  const int traced = args.smoke ? 4 : 16;
  Samples traced_lat, dispatch, unattributed;
  WindowedRate traced_rate(kRateWindow);
  std::vector<std::vector<std::int32_t>> storage(
      kPairs, std::vector<std::int32_t>(static_cast<std::size_t>(n)));
  std::vector<std::span<std::int32_t>> outs(storage.begin(), storage.end());
  for (int i = 0; i < traced; ++i) {
    const bool is_near = traced_kinds.next_near();
    const Batch& b = is_near ? near[static_cast<std::size_t>(i) % near.size()]
                             : dense[static_cast<std::size_t>(i) % dense.size()];
    const auto pairs = views(b);
    const double t0 = tr.now_ms();
    const double ms = solve(b, traced_rate);
    const int root = tr.add("request", "api.solver", t0, tr.now_ms(), -1, i);

    const int replay = tr.begin("replay", "api.solver", -1, i);
    bool replay_ok = true;
    const int pool_span = tr.run(is_near ? "engine.batch_pool.near"
                                         : "engine.batch_pool",
                                 "monge.engine", replay, i, [&] {
      try {
        pooled.multiply_batch_into(pairs, outs);
      } catch (const std::exception&) {
        replay_ok = false;
      }
    });
    tr.end(replay);
    if (replay_ok) {
      for (int k = 0; k < kPairs; ++k) {
        r.check(storage[static_cast<std::size_t>(k)] ==
                    b.expected[static_cast<std::size_t>(k)].row_to_col(),
                "pooled engine replay");
      }
    }
    // A batch the Solver answered must replay cleanly, and vice versa.
    r.check(replay_ok == (ms >= 0), "replay outcome matches the request");

    if (ms >= 0) {
      traced_lat.add(tr.duration(root));
      const double self = tr.duration(root) - tr.duration(pool_span);
      dispatch.add(self);
      unattributed.add(self / tr.duration(root));
    }
    if (!is_near) {
      tr.run("engine.batch_serial", "monge.engine", -1, i,
             [&] { serial.multiply_batch_into(pairs, outs); });
      tr.run("engine.multiply", "monge.engine", -1, i, [&] {
        serial.multiply_into(pairs[0].first, pairs[0].second, outs[0]);
      });
    } else {
      const auto a = monge::CoreSparsePerm::from_dense(pairs[0].first);
      const auto c = monge::CoreSparsePerm::from_dense(pairs[0].second);
      monge::CoreSparsePerm product;
      tr.run("core_sparse.multiply", "monge.core_sparse", -1, i,
             [&] { product = monge::core_sparse_multiply(a, c); });
      r.check(product.to_dense() == b.expected[0].row_to_col(),
              "core_sparse_multiply");
    }
  }
  const double pool_ms = tr.median_self("engine.batch_pool");
  const double serial_ms = tr.median_self("engine.batch_serial");
  r.metric("solver.dispatch_self_ms", dispatch.median(), "ms");
  r.metric("engine.multiply_ms", tr.median_self("engine.multiply"), "ms");
  r.metric("engine.batch_pool_ms", pool_ms, "ms");
  r.metric("engine.batch_serial_ms", serial_ms, "ms");
  r.metric("engine.parallel_speedup", pool_ms > 0 ? serial_ms / pool_ms : 0.0,
           "x");
  r.metric("core_sparse.multiply_ms", tr.median_self("core_sparse.multiply"),
           "ms");
  report_trace_checks(r, lat, traced_lat, unattributed);
  finish_trace(args, tr, r);
}

}  // namespace perfbench
