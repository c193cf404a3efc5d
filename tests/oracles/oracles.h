// Reference oracles the production paths are differential-tested and
// benchmarked against. They are slow on purpose — the textbook recursion,
// the padded §4.1 reduction, the depth-first LIS kernel, the per-window
// kernel scan, DP and per-window patience — and live here, in the
// test/bench-only monge_oracles target, rather than in libmonge: nothing in
// the library calls them. Each keeps the namespace of the production path
// it checks. The sibling headers hold the §2/§3 ground truth the engine's
// building blocks are checked against: explicit distribution matrices
// (distribution.h), the brute-force F/δ/opt quantities (delta.h), the
// unpacked steady ant (steady_ant.h) and the sequential multi-way combine
// (multiway_seq.h).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "monge/permutation.h"

namespace monge {

class SeaweedEngine;

/// Tiskin's textbook divide and conquer for PA ⊡ PB on full permutations
/// (one fresh std::vector per node). The seaweed engine is bit-identical
/// to it for every input and knob.
///
/// @param a full permutation PA as a row->col array.
/// @param b full permutation PB as a row->col array, same size as a.
/// @return PA ⊡ PB as a row->col array.
std::vector<std::int32_t> seaweed_multiply_reference_raw(
    const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b);

/// The §4.1 subunit reduction through explicitly padded Perms
/// (subunit_pad_pair, one full multiply, subunit_unpad). The direct engine
/// path (subunit_multiply) is bit-identical to it.
///
/// @param a sub-permutation PA (rA×n2).
/// @param b sub-permutation PB (n2×cB) with b.rows() == a.cols().
/// @param engine the engine the padded core multiply runs on.
/// @return the product sub-permutation (rA×cB).
Perm subunit_multiply_padded(const Perm& a, const Perm& b,
                             SeaweedEngine& engine);

}  // namespace monge

namespace monge::lis {

/// The depth-first LIS kernel builder: one engine call per merge, O(n)
/// calls in total. The level-order lis_kernel is bit-identical to it.
///
/// @param perm a permutation of [0, n) (validated).
/// @param engine the engine every per-merge subunit product runs on.
/// @return the n×n kernel sub-permutation.
Perm lis_kernel_reference(std::span<const std::int32_t> perm,
                          SeaweedEngine& engine);

/// LIS(p[l..r]) from the kernel by an O(n) scan of its rows;
/// kernel_window_lis_batch answers a whole batch of windows in
/// O((n + q) log n).
///
/// @param kernel a kernel built by lis_kernel / lis_kernel_batch.
/// @param l window start (inclusive).
/// @param r window end (inclusive); l > r is a legitimate empty window and
///     answers 0, even with endpoints outside [0, n).
/// @return the LIS length of p[l..r].
std::int64_t kernel_window_lis(const Perm& kernel, std::int64_t l,
                               std::int64_t r);

/// O(n^2) DP for the length of the longest strictly increasing subsequence.
std::int64_t lis_length_dp(std::span<const std::int64_t> seq);

/// Per-window patience sorting for a batch of [l, r] windows, O(q · n log n);
/// kernel_window_lis_batch answers the same batch in O((n + q) log n).
std::vector<std::int64_t> lis_window_batch(
    std::span<const std::int64_t> seq,
    std::span<const std::pair<std::int64_t, std::int64_t>> windows);

}  // namespace monge::lis

namespace monge::lcs {

/// O(|s|·|t|) DP for the LCS length.
std::int64_t lcs_dp(std::span<const std::int64_t> s,
                    std::span<const std::int64_t> t);

}  // namespace monge::lcs
