// Theorem 1.3 / Corollary 1.3.2: exact LIS (and the full semi-local LIS
// kernel) in O(log n) MPC rounds.
//
// The sequence is rank-reduced to a permutation, split into value classes
// that fit one machine, each class's kernel solved locally, and the classes
// merged pairwise up a binary tree; every merge level is ONE batched
// subunit-Monge product (Theorem 1.2 -> Theorem 1.1), so the level cost is
// the multiply's O(1) rounds and the total is O(log n).
#pragma once

#include <cstdint>
#include <span>

#include "core/mpc_multiply.h"
#include "monge/permutation.h"
#include "mpc/cluster.h"

namespace monge::lis {

struct MpcLisOptions {
  core::MpcMultiplyOptions multiply;
  /// Target number of value classes at the leaves (0 = number of
  /// machines). Negative values throw InvalidRequestError.
  std::int64_t leaf_classes = 0;
};

struct MpcLisResult {
  std::int64_t lis = 0;
  Perm kernel;                 // semi-local kernel of the whole sequence
  std::int64_t rounds = 0;     // cluster rounds consumed
  std::int64_t merge_levels = 0;
};

/// Strictly-increasing LIS of an arbitrary sequence (duplicates allowed).
MpcLisResult mpc_lis(mpc::Cluster& cluster,
                     std::span<const std::int64_t> seq,
                     const MpcLisOptions& options = {});

}  // namespace monge::lis
