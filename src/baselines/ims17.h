// IMS17-style (1+ε)-approximate MPC LIS baseline (Table 1 rows 2 and 3).
//
// The skeleton follows [IMS17]: partition by machine blocks, compress each
// block's LIS information into a DP table over a value net of K thresholds
// (T_B[u][v] = LIS of the block restricted to values in net interval
// (u, v]), and combine tables by (max,+) products. Two variants:
//
//   * fully_scalable = true: tables merge pairwise up a binary tree —
//     Θ(log m) rounds, per-machine space Θ(K²), works for every δ.
//   * fully_scalable = false: every block ships its table to one machine
//     which runs the chain DP — O(1) rounds, but the coordinator must hold
//     m·K² words; in strict mode this throws SpaceLimitError once
//     m·K² > s, which is exactly the δ < 1/4-style restriction the paper's
//     Table 1 reports for the O(1)-round variant.
//
// The estimate never exceeds the true LIS and loses at most the elements
// straddling net thresholds at block boundaries (additive O(n·ε) for net
// size K = Θ(levels/ε); the (1+ε) multiplicative guarantee therefore holds
// for inputs whose LIS is Ω(n), and is validated empirically in the tests
// and the ablation bench). docs/ARCHITECTURE.md ("Deviations from the
// paper") documents this substitution.
#pragma once

#include <cstdint>
#include <span>

#include "mpc/cluster.h"

namespace monge::baselines {

struct Ims17Options {
  double eps = 0.1;
  bool fully_scalable = true;
  /// Net size override (0 = ceil(merge_levels / eps), clamped to [2, n]).
  std::int64_t net_size = 0;
};

struct Ims17Result {
  std::int64_t lis_estimate = 0;
  std::int64_t rounds = 0;
  std::int64_t net_size = 0;
  std::int64_t table_words = 0;  // per-block DP table size
};

Ims17Result ims17_lis(mpc::Cluster& cluster,
                      std::span<const std::int64_t> seq,
                      const Ims17Options& options = {});

}  // namespace monge::baselines
