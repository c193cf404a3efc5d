// Sequential O(n log n) implicit unit-Monge multiplication
// PC = PA ⊡ PB for full n×n permutation matrices.
//
// This is Tiskin's divide-and-conquer: split PA into column halves and PB
// into row halves (§3.1 with H = 2), compact empty rows/columns, recurse,
// re-expand through the M_A/M_B index maps, and combine the two colored
// subresults with the steady ant. T(n) = 2 T(n/2) + O(n) = O(n log n).
// The recursion runs on SeaweedEngine (monge/engine.h); the textbook
// one-vector-per-node form it is tested against lives in tests/oracles.
//
// It is both the sequential baseline the MPC algorithm is measured against
// and the local solver every simulated machine runs once a subproblem fits
// in its memory.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "monge/permutation.h"

namespace monge {

/// Raw variant on index arrays (both inputs full permutations of [0,n)).
/// Runs on the thread-local SeaweedEngine (see monge/engine.h): arena-backed
/// and allocation-free (beyond the result) after the first call of a given
/// size.
std::vector<std::int32_t> seaweed_multiply_raw(std::span<const std::int32_t> a,
                                               std::span<const std::int32_t> b);

/// PC = PA ⊡ PB for full permutations (validating wrapper).
Perm seaweed_multiply(const Perm& a, const Perm& b);

}  // namespace monge
