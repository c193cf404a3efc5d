// Colored point sets and reference implementations of the §3.1 quantities:
// F_q, δ_{q,r}, opt(i,j), and the Lemma 3.7–3.10 reconstruction.
//
// These are deliberately brute-force (O(points) per query): they serve as
// the ground truth that the steady-ant combine (H = 2) and the grid/subgrid
// combine (general H) are tested against, and they document the paper's
// index conventions in executable form.
//
// Color x here is 0-based; the paper's subproblem index q ∈ [1, H] is our
// q ∈ [0, H). With A_x(i,j) = #{color-x points : row >= i, col < j},
// C_x(j) = A_x(0, j) and R_x(i) = A_x(i, cols):
//   F_q(i,j)     = Σ_{x<q} R_x(i) + A_q(i,j) + Σ_{x>q} C_x(j)      (Lemma 3.2)
//   δ_{q,r}(i,j) = F_q(i,j) − F_r(i,j)
//                = A_q(i,j) + Σ_{q<x<=r} C_x(j) − Σ_{q<=x<r} R_x(i) − A_r(i,j)
//   opt(i,j)     = min argmin_q F_q(i,j)
#pragma once

#include <cstdint>
#include <vector>

#include "monge/multiway.h"
#include "monge/permutation.h"

namespace monge {

/// A union of H sub-permutations on an n×n grid. For the combine steps of
/// §3 the union is itself a full permutation (every row and column holds
/// exactly one point); `is_full_union` checks that.
class ColoredPointSet {
 public:
  ColoredPointSet(std::int64_t n, std::int32_t num_colors,
                  std::vector<ColoredPoint> pts);

  /// Builds the union of the given sub-permutations (color = index).
  static ColoredPointSet from_subperms(const std::vector<Perm>& subs);

  std::int64_t n() const { return n_; }
  std::int32_t num_colors() const { return num_colors_; }
  const std::vector<ColoredPoint>& points() const { return pts_; }

  bool is_full_union() const;

  /// #{color-x points : row >= i, col < j}.
  std::int64_t A(std::int32_t x, std::int64_t i, std::int64_t j) const;
  /// #{color-x points : col < j}.
  std::int64_t C(std::int32_t x, std::int64_t j) const;
  /// #{color-x points : row >= i}.
  std::int64_t R(std::int32_t x, std::int64_t i) const;

  std::int64_t F(std::int32_t q, std::int64_t i, std::int64_t j) const;
  std::int64_t delta(std::int32_t q, std::int32_t r, std::int64_t i,
                     std::int64_t j) const;
  /// Smallest q attaining min_q F_q(i,j).
  std::int32_t opt(std::int64_t i, std::int64_t j) const;

  /// The sub-permutation formed by points of one color.
  Perm color_slice(std::int32_t x) const;

 private:
  std::int64_t n_;
  std::int32_t num_colors_;
  std::vector<ColoredPoint> pts_;
};

/// Reference combine: reconstructs PC from the opt table via the
/// characterisation of Lemmas 3.7–3.10. O(n^2 * H) — test oracle only.
/// Requires the union to be a full permutation.
Perm combine_opt_table(const ColoredPointSet& s);

}  // namespace monge
