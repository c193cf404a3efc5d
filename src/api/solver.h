// monge::Solver — the unified, backend-pluggable request API.
//
// The paper's deliverables are implemented as free functions spread over
// src/monge (engine, subunit), src/lis, src/lcs and src/core (the MPC
// algorithms), each with its own engine/pool/options plumbing. Solver is
// the service-style facade over all of them: construct one from
// SolverOptions, then feed it typed requests (api/request.h) via solve()
// and solve_batch(). The free functions stay public — the facade only
// delegates, so every Solver result is bit-identical to the corresponding
// direct call by construction (pinned by tests/test_solver.cpp).
//
// Routing table (request × backend → delegate):
//
// | Request            | kSequential                      | kMpcSim                          |
// | ------------------ | -------------------------------- | -------------------------------- |
// | Multiply kFull     | SeaweedEngine::multiply          | core::mpc_unit_monge_multiply    |
// | Multiply kSubunit  | subunit_multiply(a, b, engine_)  | core::mpc_subunit_multiply       |
// | Multiply batch     | multiply_batch_into /            | core::mpc_*_multiply_batch       |
// |                    | subunit_multiply_batch_into      | (rounds shared per level)        |
// | Lis length-only    | lis::lis_length (patience)       | lis::mpc_lis                     |
// | Lis kernel         | lis::lis_kernel(perm, engine_)   | lis::mpc_lis                     |
// | Lis windows        | kernel + kernel_window_lis_batch | mpc_lis kernel + same            |
// | Lis batch (kernel) | lis_kernel_batch(perms, engine_) | per-request mpc_lis              |
// | Lcs                | lcs::lcs_hs                      | lcs::mpc_lcs                     |
// | BuildIndex         | SemiLocalIndex over lis_kernel   | SemiLocalIndex over mpc_lis      |
// |                    |                                  | kernel (rounds reported)         |
// | WindowLis /        | pure index lookups — backend-independent by construction (the     |
// | SubstringLcs query | index already holds the semi-local distribution; no engine or     |
// |                    | cluster work on either backend)                                   |
//
// The slower reference oracles these routes are differential-tested
// against (textbook recursion, padded subunit reduction, depth-first
// kernel, DP and per-window patience) are not part of the library; they
// live in tests/oracles.
//
// Batching contract: a Sequential solve_batch costs exactly one batched
// engine call per request kind — MultiplyRequest batches group into at
// most one multiply_batch_into and one subunit_multiply_batch_into call
// (one arena sizing each, striped across the engine pool when one is
// configured), and LisRequest batches solve all kernels through one
// lis_kernel_batch forest pass (one batched engine call per merge level).
// The MpcSim backend routes multiply batches through the *_batch cluster
// entry points, so all pairs of a batch share every round.
//
// LCS match-count guard: every route that would hand a Hunt–Szymanski
// match sequence to the seaweed machinery (the Sequential batch grouping's
// kernels, the MpcSim cluster solve) first checks the match count against
// SolverOptions::lcs_engine_match_limit and falls back to patience sorting
// on the match sequence above it — bit-identical results (lcs_hs IS
// patience over the matches), no engine size-guard throw. The
// single-request Sequential route always uses patience directly, so it is
// immune by construction; single and batch solves therefore agree for
// every match count.
//
// Backend resources: the Solver owns one SeaweedEngine (arena reused
// across requests) and, for the MpcSim backend, one lazily constructed
// mpc::Cluster. The cluster is provisioned on first use — either from the
// explicit SolverOptions::cluster config, or auto-sized per request via
// MpcConfig::fully_scalable(n, mpc_delta, mpc_slack, mpc_strict) — and
// reused while the computed config is unchanged (an auto-provisioned
// request of a different size rebuilds it, exactly reproducing what a
// direct caller constructing a fresh per-problem cluster would see; round
// counts in results are per-request deltas either way).
//
// Request types: solve() and try_solve() are templates over the types
// listed in RequestTypes (api/request.h); each resolves to that type's
// private solve_on() route, so a listed type without a route fails to
// build. solve_batch() keeps one overload per batchable type.
//
// Error handling: solve() throws the monge::Error taxonomy —
// InvalidRequestError (bad options or request shapes), SpaceLimitError
// (strict-mode budget overruns), FaultError (an injected fault the
// cluster could not recover from), CodecError (corrupt payloads).
// try_solve() never throws on those: it returns the same result plus a
// SolveReport carrying a SolveStatus, the per-request RecoveryStats
// delta, and a human-readable message. When the MpcSim backend fails
// with a fault or space overrun, try_solve degrades the request to the
// Sequential backend and flags it (report.degraded) — callers get an
// answer plus a diagnosis instead of an exception.
//
// Thread compatibility: a Solver instance is NOT thread-safe (it owns one
// engine arena and one cluster). Use one Solver per thread, or serialize
// access externally; distinct Solver instances never share mutable state,
// and results are bit-identical across instances and thread counts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/request.h"
#include "lis/mpc_lis.h"
#include "monge/engine.h"
#include "mpc/cluster.h"

namespace monge {

/// Which implementation family a Solver routes requests to.
enum class SolverBackend {
  /// The arena-backed SeaweedEngine and the sequential LIS/LCS paths.
  kSequential = 0,
  /// The paper's MPC algorithms on the simulated cluster (rounds/space
  /// accounting in the results).
  kMpcSim = 1,
};

/// @return a stable human-readable name ("sequential", "mpc-sim") for
///     logging and bench labels.
const char* solver_backend_name(SolverBackend backend);

/// Outcome classification of a try_solve / try_submit call — the ErrorCode
/// taxonomy (util/error.h) plus kOk and a kInternalError catch-all.
enum class SolveStatus {
  kOk = 0,             ///< the request solved (possibly degraded).
  kInvalidRequest = 1, ///< InvalidRequestError or a failed precondition.
  kSpaceLimit = 2,     ///< SpaceLimitError (strict-mode budget overrun).
  kFault = 3,          ///< FaultError (unrecoverable injected fault).
  kCodec = 4,          ///< CodecError (corrupt payload).
  kInternalError = 5,  ///< any other exception — a bug, report it.
  kOverloaded = 6,     ///< OverloadedError (service admission refused).
};

/// @return a stable human-readable name ("ok", "invalid-request",
///     "space-limit", "fault", "codec", "internal-error", "overloaded").
const char* solve_status_name(SolveStatus status);

/// Per-request outcome report returned by try_solve alongside the result.
struct SolveReport {
  /// Final outcome. kOk when `value` is usable (even if degraded).
  SolveStatus status = SolveStatus::kOk;
  /// The backend that produced the result — options().backend normally,
  /// kSequential when the request was degraded.
  SolverBackend backend = SolverBackend::kSequential;
  /// True when the MpcSim backend failed (fault / space overrun) and the
  /// request was re-solved on the Sequential backend.
  bool degraded = false;
  /// True when the value was served from the SolverService result cache
  /// (api/service.h) instead of a fresh solve. Always false from
  /// Solver::try_solve.
  bool cached = false;
  /// Human-readable diagnosis; empty on a clean kOk.
  std::string message;
  /// Recovery activity this request caused on the MpcSim cluster
  /// (checkpoints, re-executed rounds, masked message faults) — a
  /// per-request delta, zeros for non-MpcSim backends.
  mpc::RecoveryStats recovery{};
  /// Representation decisions this request caused on the Solver-owned
  /// engine (dense vs. core-sparse nodes, block outcomes) — a per-request
  /// delta of SeaweedEngine::representation_stats(). Zeros for routes that
  /// never touch the owned engine (patience sorting, the MpcSim
  /// cluster's per-worker engines, index lookups).
  RepresentationStats representation{};

  bool ok() const { return status == SolveStatus::kOk; }
};

/// Result-plus-report pair returned by try_solve. `value` is only
/// meaningful when report.ok().
template <typename Result>
struct TrySolveResult {
  Result value{};
  SolveReport report;

  bool ok() const { return report.ok(); }
};

/// Construction-time configuration of a Solver. Validated by the Solver
/// constructor: invalid values throw monge::InvalidRequestError (never
/// silently clamped). The nested engine options are validated by the
/// SeaweedEngine constructor, which throws std::logic_error.
struct SolverOptions {
  /// Implementation family every request routes to.
  SolverBackend backend = SolverBackend::kSequential;

  /// Knobs of the owned SeaweedEngine (base-case cutoff, parallel grain,
  /// optional borrowed ThreadPool). Validated by the engine constructor.
  SeaweedEngineOptions engine{};

  /// MpcSim backend: explicit cluster config, used when num_machines > 0.
  /// The default (num_machines == 0) auto-provisions
  /// MpcConfig::fully_scalable(n, mpc_delta, mpc_slack, mpc_strict) from
  /// each request's input size n (match count for LCS), reusing the
  /// cluster while the computed config stays the same. The threads,
  /// faults and checkpoint_interval fields carry over into
  /// auto-provisioned clusters, so chaos plans apply either way.
  mpc::MpcConfig cluster{.num_machines = 0};
  /// Auto-provisioning exponent δ: m = n^δ machines. Must be in (0, 1).
  double mpc_delta = 0.5;
  /// Auto-provisioning space slack (the Õ(·) constant). Must be > 0.
  double mpc_slack = 24.0;
  /// Auto-provisioned clusters throw SpaceLimitError on budget overruns.
  bool mpc_strict = true;

  /// Per-call multiply knobs for the MpcSim backend; zero-valued fields
  /// resolve to the paper schedule inside core (identical to
  /// core::paper_profile). Validated: no negative fields.
  core::MpcMultiplyOptions multiply{};
  /// lis::MpcLisOptions::leaf_classes for the MpcSim LIS driver
  /// (0 = number of machines). Must be >= 0.
  std::int64_t lis_leaf_classes = 0;

  /// Largest Hunt–Szymanski match count an LCS solve hands to the seaweed
  /// machinery; groups/requests above it are answered by patience sorting
  /// on the match sequence instead (identical results — lcs_hs IS patience
  /// over the matches). Applies uniformly to the Sequential batch grouping
  /// AND the single-request MpcSim route, which would otherwise throw from
  /// the engine's size guard instead of degrading. Must be in
  /// [1, kSeaweedEngineMaxN] (the default; the engine cannot accept more).
  /// Lower it in tests to exercise the fallback at practical sizes.
  std::int64_t lcs_engine_match_limit = kSeaweedEngineMaxN;
};

class Solver {
 public:
  /// Validates and fixes the options for the Solver's lifetime; throws
  /// monge::InvalidRequestError on invalid backend/MPC knobs (the engine
  /// knobs are validated by the SeaweedEngine constructor, which throws
  /// std::logic_error). Constructs the engine (empty arena); the cluster
  /// is NOT constructed until the first MpcSim-backend request.
  explicit Solver(SolverOptions options = {});

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Solves one request of any type in RequestTypes on options().backend
  /// — bit-identical to the delegate in the routing table. Throws the
  /// monge::Error taxonomy (InvalidRequestError for bad request shapes,
  /// e.g. b.rows() != a.cols() or a kFull multiply of sub-permutations).
  template <SolverRequest R>
  typename R::Result solve(const R& req) {
    return solve_on(options_.backend, req);
  }

  /// Batched products, results in request order. Sequential: at most one
  /// batched engine call per request kind (one arena sizing each, striped
  /// across the pool when configured). MpcSim: one *_batch cluster call
  /// per kind, all pairs sharing rounds (the report in every result of a
  /// kind group is that group's shared batch report). Bit-identical to
  /// per-request solve() on the Sequential backend.
  std::vector<MultiplyResult> solve_batch(
      std::span<const MultiplyRequest> reqs);

  /// Batched LIS, results in request order. Sequential: every kernel the
  /// batch needs is built through ONE lis_kernel_batch forest pass (one
  /// batched engine call per merge level); length-only requests route to
  /// patience sorting. MpcSim: per-request solve().
  std::vector<LisResult> solve_batch(std::span<const LisRequest> reqs);

  /// Batched LCS, results in request order. Sequential: requests are
  /// grouped by (t, s) — the Hunt–Szymanski occurrence table is built once
  /// per distinct t, identical (s, t) pairs collapse onto one subproblem,
  /// and all distinct match-sequence LIS subproblems ride one
  /// lis_kernel_batch forest pass. Bit-identical to per-request solve().
  /// MpcSim: per-request solve().
  std::vector<LcsResult> solve_batch(std::span<const LcsRequest> reqs);

  /// Non-throwing solve(): classifies any monge::Error into a SolveStatus
  /// and returns it in the report instead of propagating. An MpcSim
  /// fault/space failure is degraded to the Sequential backend
  /// (report.degraded = true, report.message explains); the failed
  /// cluster is torn down so the next MpcSim request starts clean. The
  /// report also carries the per-request RecoveryStats delta, so chaos
  /// runs can audit how much recovery work their answer cost.
  template <SolverRequest R>
  TrySolveResult<typename R::Result> try_solve(const R& req) {
    TrySolveResult<typename R::Result> out;
    out.report = solve_reported(
        [&](SolverBackend backend) { out.value = solve_on(backend, req); });
    return out;
  }

  /// @return the options, exactly as validated at construction.
  const SolverOptions& options() const { return options_; }

  /// The owned engine (arena stats, subunit_batch_calls counters — the
  /// Sequential backend's engine counters). Mutable access is safe only
  /// between solve calls.
  SeaweedEngine& engine() { return engine_; }
  const SeaweedEngine& engine() const { return engine_; }

  /// The lazily constructed cluster of the MpcSim backend, or nullptr if
  /// no MpcSim request ran yet. Exposed for introspection (stats(),
  /// machines(), space_words()); stats accumulate across requests —
  /// results carry per-request round deltas.
  mpc::Cluster* cluster() { return cluster_.get(); }
  const mpc::Cluster* cluster() const { return cluster_.get(); }

 private:
  /// The routes: one solve() body per request type, parameterized on the
  /// backend so try_solve can re-route a failed MpcSim request to
  /// kSequential. BuildIndexRequest builds the index with the backend's
  /// kernel builder (all bit-identical) and returns a self-owning handle
  /// usable across Solver instances; the two query routes are pure index
  /// lookups that throw InvalidRequestError on an empty handle or an index
  /// of the other mode.
  MultiplyResult solve_on(SolverBackend backend, const MultiplyRequest& req);
  LisResult solve_on(SolverBackend backend, const LisRequest& req);
  LcsResult solve_on(SolverBackend backend, const LcsRequest& req);
  BuildIndexResult solve_on(SolverBackend backend,
                            const BuildIndexRequest& req);
  WindowLisResult solve_on(SolverBackend backend, const WindowLisQuery& req);
  SubstringLcsResult solve_on(SolverBackend backend,
                              const SubstringLcsQuery& req);

  /// try_solve's request-independent half: calls run(options().backend),
  /// classifies any escape into a SolveStatus, degrades MpcSim fault/space
  /// failures by calling run(kSequential), and returns the report.
  SolveReport solve_reported(const std::function<void(SolverBackend)>& run);

  /// Returns the cluster to use for an MpcSim request of input size n,
  /// (re)provisioning if none exists or the auto-computed config changed.
  mpc::Cluster& provisioned_cluster(std::int64_t n);

  /// Resolved lis::MpcLisOptions from the solver options.
  lis::MpcLisOptions mpc_lis_options() const;

  SolverOptions options_;
  SeaweedEngine engine_;
  std::unique_ptr<mpc::Cluster> cluster_;
  mpc::MpcConfig cluster_cfg_{};  ///< config cluster_ was built with.
};

}  // namespace monge
