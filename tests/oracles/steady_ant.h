// The two-subproblem combine (H = 2 specialisation of §3) in O(n) time,
// classically known as the "steady ant" step of Tiskin's sequential
// unit-Monge multiplication.
//
// Input: a full n×n permutation that is the disjoint union of the two
// expanded subproblem results PC,lo (color 0) and PC,hi (color 1); every row
// and column holds exactly one point. Output: PC with
// PΣ_C(i,j) = min(F_0(i,j), F_1(i,j)) (Lemma 3.2 with H = 2).
//
// The implementation walks the monotone demarcation line t(j) = max{ i :
// δ_{0,1}(i,j) <= 0 } from (n,0) to (t(n),n), using the 0/1 increment rules
// proved in Lemmas 3.3/3.4, and reconstructs PC via the corner
// characterisation of Lemmas 3.7–3.10.
//
// This is the unpacked, one-vector-per-call form: the textbook recursion in
// oracles.h combines with it, and tests check it against the brute-force
// opt table (delta.h). The engine runs the packed walk in
// monge/steady_ant_simd.h instead.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "monge/permutation.h"

namespace monge {

/// Raw variant on index arrays: `union_row_to_col[r]` is the column
/// of row r's point, `row_color[r]` in {0,1} its owning subproblem. The
/// union must be a full permutation (checked only in debug builds).
std::vector<std::int32_t> steady_ant_combine_raw(
    std::span<const std::int32_t> union_row_to_col,
    std::span<const std::uint8_t> row_color);

/// The demarcation thresholds (length n+1):
/// t[j] = max{ i in [0,n] : δ_{0,1}(i,j) <= 0 }, i.e. opt(i,j) = 0 iff
/// i <= t[j]. Exposed separately for tests.
std::vector<std::int64_t> steady_ant_thresholds(
    std::span<const std::int32_t> union_row_to_col,
    std::span<const std::uint8_t> row_color);

/// Validating wrapper over steady_ant_combine_raw.
Perm steady_ant_combine(const Perm& union_perm,
                        const std::vector<std::uint8_t>& row_color);

}  // namespace monge
