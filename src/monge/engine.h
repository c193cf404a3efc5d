// Arena-backed sequential/parallel seaweed multiplication engine.
//
// SeaweedEngine runs Tiskin's divide-and-conquer unit-Monge multiplication
// PC = PA ⊡ PB: split PA into column halves and PB into row halves (§3.1
// with H = 2), compact empty rows/columns, recurse, re-expand, and combine
// the two colored subresults with the steady ant, T(n) = 2 T(n/2) + O(n).
// It runs over index ranges into a flat scratch arena that is sized
// exactly once per top-level call: after the first multiply of a given
// size the recursion performs zero heap allocations. Below a configurable
// cutoff it switches to a dense distribution-matrix (min,+) base case, and
// above a configurable grain size it forks the two independent lo/hi
// subproblems onto a ThreadPool (fork-join with caller work-helping, so
// nested forks cannot deadlock). The per-node combine is the steady-ant
// walk dispatched through steady_ant_simd.h (blocked descent + mask-select
// resolution on the widest ISA the host offers; MONGE_FORCE_SCALAR pins it
// back to the scalar walk). The result is bit-identical to the textbook
// recursion (the reference in tests/oracles) for every input: PA ⊡ PB is
// unique and every combine path reproduces the same bits.
//
// Input-size limit: the combine packs each point as (coord << 1) | color
// in one int32, so every dimension a public entry point accepts (n for the
// full-permutation paths; a.size(), b.size() and b_cols for the subunit
// paths) must be <= kSeaweedEngineMaxN = 2^30. Larger inputs throw a clear
// std::logic_error up front — the limit is checked at every public entry
// point, never silently truncated into UB.
//
// Knobs (SeaweedEngineOptions):
//   * base_case_cutoff — subproblems of size <= cutoff are solved by the
//     dense (min,+) base case instead of recursing. The dense solve is
//     O(k^3) but branch-light and allocation-free, so it wins for small k;
//     the default is tuned on bench/seq_multiply (see README). Set to 1 to
//     force the pure recursion (useful in tests). Must be in [1, 256] —
//     the cubic base case turns pathological far below the upper bound —
//     and construction throws on out-of-range values instead of silently
//     rewriting the knob.
//   * parallel_grain — subproblems larger than this fork their lo/hi
//     halves onto the pool; smaller ones run sequentially on the calling
//     thread. Must be >= 2 (a size-1 subproblem cannot fork; construction
//     throws below that). Scheduling never affects results (subproblems
//     write disjoint arena slices), only wall-clock.
//   * pool — optional ThreadPool; nullptr means fully sequential. The
//     engine never owns the pool.
//
// Six entry points, all on one batch skeleton (a single-pair call is a
// batch of one):
//   * multiply / multiply_into — one full-permutation product, on Perms or
//     on raw row->col arrays,
//   * multiply_raw_batch / multiply_batch_into — many independent products
//     behind one arena sizing, solved back-to-back or striped across the
//     pool (this is what the MPC simulator's machine-local leaf solve
//     uses: one engine call per machine and level),
//   * subunit_multiply_into — the §4.1 sub-permutation reduction run
//     directly on raw row->col arrays, with the compact/extend arithmetic
//     in arena scratch instead of padded Perm temporaries, and
//   * subunit_multiply_batch_into — the batched form of the subunit path
//     (this is what the level-order LIS kernel uses: one engine call per
//     merge level instead of one per merge).
//
// Representation-adaptive dispatch: every entry point routes its recursion
// nodes through a density probe (see core_density_cutoff below). Nodes
// whose inputs both have core density (fraction of rows with p[r] != r)
// at or below the cutoff are cut at boundaries clean for both inputs into
// independent diagonal blocks — the streaming form of the core-sparse
// decomposition in src/monge/core_sparse.h — where one-sided-identity
// blocks are copied verbatim and only interacting blocks recurse densely.
// Near-identical inputs (tiny cores) therefore cost near the core size
// instead of n log n, while dense random inputs pay only the early-exit
// probe. An engine constructed with core_density_cutoff = 0 never probes
// and is the pure dense differential oracle the adaptive path is fuzzed
// against. Dispatch never affects results: the product permutation is
// unique, so every path produces the same bits.
//
// An engine instance is NOT thread-safe (it owns one arena); use one
// engine per thread. default_seaweed_engine() returns a thread-local
// sequential instance whose arena is reused across calls.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "monge/permutation.h"

namespace monge {

class ThreadPool;

/// Largest size any SeaweedEngine entry point accepts, in every dimension
/// (n for full permutations; rows, inner size and b_cols for the subunit
/// paths). The steady-ant combine packs each point as (coord << 1) | color
/// in one int32, which overflows past 2^30; inputs beyond the limit throw
/// std::logic_error at the public entry points.
inline constexpr std::int64_t kSeaweedEngineMaxN = std::int64_t{1} << 30;

/// Tuning knobs for a SeaweedEngine. Fixed and validated at construction
/// (out-of-range values throw std::logic_error rather than being silently
/// rewritten, so options() always reports exactly what the caller chose);
/// see the file comment for how each knob trades off. None of them affect
/// results — only wall-clock and arena footprint.
struct SeaweedEngineOptions {
  /// Subproblems of size <= cutoff use the dense O(k^3) base case.
  /// Must be in [1, 256]; validated at construction.
  std::int64_t base_case_cutoff = 8;
  /// Subproblems larger than this fork onto `pool` (when set). Must be
  /// >= 2; validated at construction.
  std::int64_t parallel_grain = 1 << 13;
  /// Optional fork-join pool; nullptr runs fully sequential. Borrowed,
  /// never owned: the pool must outlive the engine's calls that use it.
  ThreadPool* pool = nullptr;
  /// Density-adaptive dispatch knob: recursion nodes of size >=
  /// core_probe_min_n probe both inputs' core density (fraction of
  /// non-fixed rows, measured by an early-exit scan that stops as soon as
  /// the budget is blown). When BOTH densities are <= the cutoff, the node
  /// is cut at boundaries clean for both inputs into independent diagonal
  /// blocks: one-sided-identity blocks are copied, only interacting blocks
  /// recurse densely (src/monge/core_sparse.h documents the decomposition).
  /// Must be in [0, 1]; 0 disables probing entirely, which makes the
  /// engine the pure dense differential oracle. Like every knob it never
  /// affects results — only which path computes them and how fast.
  double core_density_cutoff = 0.25;
  /// Smallest recursion node the density probe considers; below it the
  /// dense recursion is already cheap and probing is pure overhead. Must
  /// be >= 2; validated at construction.
  std::int64_t core_probe_min_n = 64;
};

/// Counters of the engine's representation decisions (the
/// core_density_cutoff dispatch). Snapshot via
/// SeaweedEngine::representation_stats(); subtract two snapshots for a
/// per-call delta. Totals depend only on the inputs and the knobs — never
/// on scheduling — so they are deterministic across thread counts.
struct RepresentationStats {
  /// Probed nodes that stayed dense: core density above the cutoff, or no
  /// boundary clean for both inputs (the node is one indivisible block).
  std::int64_t dense_nodes = 0;
  /// Probed nodes that took the core-sparse block decomposition.
  std::int64_t core_sparse_nodes = 0;
  /// Decomposed blocks where both cores interact, solved by the dense
  /// recursion on shifted copies.
  std::int64_t blocks_dense = 0;
  /// Decomposed blocks where one input restricts to the identity, copied
  /// verbatim (id ⊡ X = X ⊡ id = X).
  std::int64_t blocks_copied = 0;

  friend bool operator==(const RepresentationStats&,
                         const RepresentationStats&) = default;

  /// Member-wise difference, for before/after per-call deltas.
  friend RepresentationStats operator-(const RepresentationStats& x,
                                       const RepresentationStats& y) {
    return {x.dense_nodes - y.dense_nodes,
            x.core_sparse_nodes - y.core_sparse_nodes,
            x.blocks_dense - y.blocks_dense,
            x.blocks_copied - y.blocks_copied};
  }
};

namespace detail {

/// Lock-free tallies behind SeaweedEngine::representation_stats(): forked
/// pool workers increment them concurrently, so they are atomics. Relaxed
/// ordering suffices — the fork-join barrier sequences every increment
/// before any snapshot the owning thread takes.
struct SeaweedRepCounters {
  std::atomic<std::int64_t> dense_nodes{0};
  std::atomic<std::int64_t> core_sparse_nodes{0};
  std::atomic<std::int64_t> blocks_dense{0};
  std::atomic<std::int64_t> blocks_copied{0};
};

}  // namespace detail

/// Borrowed view of a raw row->col index array. Full permutations for the
/// multiply entry points; the subunit entry points additionally allow kNone
/// (empty row) entries.
using PermView = std::span<const std::int32_t>;

/// One batch entry: the product PA ⊡ PB of pair.first and pair.second.
using PermPairView = std::pair<PermView, PermView>;

/// One batched subunit product: PC = PA ⊡ PB for sub-permutation row->col
/// arrays (kNone = empty row). `a` is a.size() × b.size(), `b` is
/// b.size() × b_cols — the same shape contract as subunit_multiply_into.
struct SubunitPairView {
  PermView a;
  PermView b;
  std::int64_t b_cols = 0;
};

class SeaweedEngine {
 public:
  /// Constructs an engine with the given knobs (validated as documented on
  /// SeaweedEngineOptions; out-of-range values throw std::logic_error).
  /// The arena starts empty and grows monotonically across calls;
  /// construction itself does not allocate scratch.
  ///
  /// @param options tuning knobs; copied, fixed for the engine's lifetime.
  explicit SeaweedEngine(SeaweedEngineOptions options = {});

  SeaweedEngine(const SeaweedEngine&) = delete;
  SeaweedEngine& operator=(const SeaweedEngine&) = delete;

  /// PC = PA ⊡ PB on raw row->col index arrays, written into `out`; both
  /// inputs must be full permutations of [0, n) (validated in debug builds
  /// only). A batch of one through multiply_batch_into.
  ///
  /// Deterministic: bit-identical to the textbook recursion for
  /// every input, every knob choice and every thread count. Reuses (and
  /// possibly grows) the engine's arena; no allocations after the first
  /// call of a given size, and none at all for n <= 1.
  ///
  /// @param a row->col array of PA (size n).
  /// @param b row->col array of PB (size n).
  /// @param out receives the product row->col array; must have size n and
  ///     must not alias `a` or `b`.
  void multiply_into(std::span<const std::int32_t> a,
                     std::span<const std::int32_t> b,
                     std::span<std::int32_t> out);

  /// Validating Perm wrapper around multiply_into (full permutations only;
  /// use subunit_multiply / subunit_multiply_into for sub-permutations).
  ///
  /// @param a full permutation matrix PA.
  /// @param b full permutation matrix PB with b.rows() == a.cols().
  /// @return the product permutation PA ⊡ PB.
  Perm multiply(const Perm& a, const Perm& b);

  /// Batched products PC_i = PA_i ⊡ PB_i. The arena is sized ONCE for the
  /// whole batch (max subproblem budget when sequential, sum of budgets
  /// when striped), then the pairs are solved back-to-back — or, when a
  /// ThreadPool is configured, striped across it via invoke_two fork-join
  /// (caller work-helping, so batches may be issued from pool workers).
  /// Results are bit-identical to per-pair multiply_into calls for every
  /// thread count. Pairs may have mixed sizes, including 0 and 1.
  ///
  /// @param pairs the (PA_i, PB_i) inputs; each pair's views must have
  ///     equal size and be full permutations.
  /// @return one product row->col array per pair, in input order.
  std::vector<std::vector<std::int32_t>> multiply_raw_batch(
      std::span<const PermPairView> pairs);

  /// Allocation-free batch core: solves pairs[i] into outs[i] (each the
  /// size of its inputs). This is what the MPC simulator's machine-local
  /// leaf solve calls — one engine call per worker and level instead of one
  /// per leaf. Same arena-sizing, striping and determinism contract as
  /// multiply_raw_batch.
  ///
  /// @param pairs the (PA_i, PB_i) inputs (full permutations, mixed sizes).
  /// @param outs one output span per pair, outs[i].size() ==
  ///     pairs[i].first.size(); outputs must not alias any input.
  void multiply_batch_into(std::span<const PermPairView> pairs,
                           std::span<const std::span<std::int32_t>> outs);

  /// Direct subunit path (Theorem 1.2 without the Perm round-trip):
  /// PC = PA ⊡ PB for sub-permutation row->col arrays (kNone = empty row).
  /// `a` has a.size() rows and b.size() columns; `b` has b.size() rows and
  /// `b_cols` columns. The §4.1 compact/extend arithmetic runs entirely in
  /// the arena — no Perm construction and no heap temporaries — and the
  /// core solve reuses the padded-PA slot as its output.
  ///
  /// Deterministic: bit-identical to the explicitly padded reduction
  /// (subunit_pad_pair, multiply, subunit_unpad) for every input and
  /// thread count. Sub-permutation validity of the inputs is always
  /// checked (it falls out of the compaction pass).
  ///
  /// @param a row->col array of PA (kNone allowed), a.size() rows,
  ///     b.size() columns.
  /// @param b row->col array of PB (kNone allowed), b.size() rows, b_cols
  ///     columns.
  /// @param b_cols number of columns of PB (and of the product); >= 0.
  /// @param out receives out[r] = product column of row r, or kNone;
  ///     out.size() == a.size(). Must not alias `a` or `b`.
  void subunit_multiply_into(PermView a, PermView b, std::int64_t b_cols,
                             std::span<std::int32_t> out);

  /// Batched subunit products PC_i = PA_i ⊡ PB_i, the §4.1 reduction for a
  /// whole batch behind ONE arena sizing — mirroring the multiply_batch_into
  /// contract. Sequentially the arena is sized once for the largest pair
  /// and the pairs are solved back-to-back; with a ThreadPool configured
  /// the batch is striped across the workers via invoke_two fork-join on
  /// disjoint carved arena slices (caller work-helping, so batches may be
  /// issued from pool workers — each stripe still runs its own core solve
  /// sequentially unless the pair exceeds parallel_grain).
  ///
  /// Deterministic: bit-identical to per-pair subunit_multiply_into calls
  /// for every thread count and batch shape. Pairs may have mixed and
  /// degenerate shapes (empty a/b, b_cols == 0, all-kNone rows). This is
  /// what the level-order LIS kernel issues: one call per merge level.
  ///
  /// @param pairs the (PA_i, PB_i, b_cols_i) inputs; shape contract per
  ///     entry as in subunit_multiply_into.
  /// @param outs one output span per pair, outs[i].size() ==
  ///     pairs[i].a.size(); outputs must not alias any input.
  void subunit_multiply_batch_into(
      std::span<const SubunitPairView> pairs,
      std::span<const std::span<std::int32_t>> outs);

  /// @return the engine's knobs, exactly as passed at construction (the
  ///     constructor validates instead of clamping, so the effective
  ///     values never differ from the requested ones).
  const SeaweedEngineOptions& options() const { return options_; }

  /// Number of subunit_multiply_batch_into calls this engine has served
  /// to completion — calls that threw (validation or solve) are not
  /// counted, and neither are single-pair subunit_multiply_into calls.
  /// One per LIS-kernel merge level; for tests asserting the O(log n) call
  /// structure.
  ///
  /// @return the lifetime completed batched-subunit call count.
  std::int64_t subunit_batch_calls() const { return subunit_batch_calls_; }

  /// Snapshot of the representation-decision counters, accumulated over
  /// the engine's lifetime (monotone — subtract two snapshots for the
  /// delta of one call; RepresentationStats::operator- does exactly that).
  /// Deterministic for a given input sequence and knob set.
  ///
  /// @return the current counter values.
  RepresentationStats representation_stats() const;

  /// Current arena capacity in bytes (grows monotonically; for tests and
  /// benchmarks).
  ///
  /// @return the scratch buffer size in bytes, including alignment slack.
  std::size_t arena_capacity() const { return buffer_.size(); }

  /// Exact number of scratch bytes a full-permutation multiply of size n
  /// will reserve (for tests and benchmarks).
  ///
  /// @param n problem size (rows of PA).
  /// @return the arena budget in bytes for one size-n core solve.
  std::size_t arena_bytes_for(std::int64_t n) const;

 private:
  /// Grows the buffer to hold at least `bytes` scratch (plus alignment
  /// slack) and returns the 64-byte-aligned usable range.
  std::span<std::byte> arena_span(std::size_t bytes);

  SeaweedEngineOptions options_;
  std::vector<std::byte> buffer_;
  std::int64_t subunit_batch_calls_ = 0;
  /// Representation-decision tallies; mutable because counting decisions
  /// does not change observable products, and incremented from forked
  /// workers during a call (hence atomics — see detail::SeaweedRepCounters).
  mutable detail::SeaweedRepCounters rep_counters_;
};

/// Thread-local sequential engine with a persistent arena; backs the MPC
/// simulator's machine-local solves.
///
/// @return the calling thread's engine (default options, no pool).
SeaweedEngine& default_seaweed_engine();

}  // namespace monge
