// The semi-local LIS kernel (§4.2 / Corollary 1.3.2).
//
// For a permutation p of [0, n), the kernel K is an n×n sub-permutation
// with   LIS(p[l..r]) = (r − l + 1) − KΣ(l, r + 1),
// where KΣ(i, j) = #{kernel points (r, c) : r >= i, c < j}.
//
// It is built by the standard value-split divide and conquer: split values
// at the median into classes lo/hi, recurse on the (position-relabelled)
// classes, embed both kernels into the union's position ranks, and combine
// with one subunit-Monge product:
//   K = (K_lo ⊕ id_hi) ⊡ (id_lo ⊕ K_hi).
// This is the decomposition Theorem 1.3 parallelises: each merge level of
// the MPC algorithm is one batched ⊡.
//
// The builder walks that tree bottom-up in LEVEL ORDER, not depth-first:
// the permutation is split into the full leaf partition once, then every
// merge level issues ONE batched engine call
// (SeaweedEngine::subunit_multiply_batch_into) covering all of the level's
// (A, B) embedding pairs — O(log n) engine calls total, each sharing a
// single arena sizing and striping across the engine's pool when one is
// configured. The pre-batching depth-first recursion (one engine call per
// merge) lives in tests/oracles as the differential-fuzz reference and
// per-merge benchmark baseline.
//
// Representation note: the merge products run through the engine's
// density-adaptive dispatch (monge/core_sparse.h) with no code here —
// nearly sorted inputs produce near-identity kernels at every level, so
// the clean-boundary block decomposition turns their merges into copies
// plus small dense blocks. SolveReport.representation (or
// SeaweedEngine::representation_stats deltas, surfaced per trace by
// tools/core_stats --kernel) shows how much of a workload it absorbs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "monge/permutation.h"

namespace monge {
class SeaweedEngine;
}

namespace monge::lis {

/// Sequential kernel of a permutation (O(n log^2 n)). Level-order: every
/// merge level's batched subunit-Monge product runs on the caller-provided
/// engine (reusing its arena, and striping the level across its thread pool
/// if one is configured). Bit-identical to the depth-first recursion and
/// deterministic for every thread count; default_seaweed_engine() is the
/// thread-local engine for callers without one of their own.
///
/// @param perm a permutation of [0, n) (validated).
/// @param engine the engine every batched merge level runs on.
/// @return the n×n kernel sub-permutation.
Perm lis_kernel(std::span<const std::int32_t> perm, SeaweedEngine& engine);

/// Kernels of many independent permutations in one level-order pass: each
/// global merge level issues ONE batched engine call covering that level's
/// merges across ALL inputs, so b kernels of size n cost O(log n) engine
/// calls instead of O(b log n). This is what the MPC LIS driver uses for
/// the leaf kernels a machine owns. Results are bit-identical to per-input
/// lis_kernel for every thread count.
///
/// @param perms one permutation of [0, n_i) per entry (each validated).
/// @param engine the engine every batched merge level runs on.
/// @return one kernel per input, in input order.
std::vector<Perm> lis_kernel_batch(
    std::span<const std::vector<std::int32_t>> perms, SeaweedEngine& engine);

/// LIS of the whole permutation from its kernel: n − #points.
///
/// @param kernel a kernel built by lis_kernel / lis_kernel_batch.
/// @return the LIS length of the underlying permutation.
std::int64_t lis_from_kernel(const Perm& kernel);

/// Offline batch of window queries in O((n + q) log n) via dominance
/// counting (Fenwick sweep). The whole batch must be known up front; for
/// ONLINE serving — queries arriving one at a time against a sequence
/// indexed once — query::SemiLocalIndex (src/query/semilocal_index.h)
/// answers each window in O(log² n) from a persisted kernel instead.
///
/// @param kernel a kernel built by lis_kernel / lis_kernel_batch.
/// @param windows (l, r) inclusive windows; empty (l > r) windows answer 0.
/// @return one LIS length per window, in input order.
std::vector<std::int64_t> kernel_window_lis_batch(
    const Perm& kernel,
    std::span<const std::pair<std::int64_t, std::int64_t>> windows);

}  // namespace monge::lis
