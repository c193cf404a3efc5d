// The H-way combine of §3.2/§3.3: given the colored union of H subproblem
// results PC,1..PC,H (a full permutation with colors), produce PC with
// PΣ_C = min_q F_q.
//
// Structure (exactly the paper's):
//   * vertical grid lines  x = 0, G, 2G, …, n  carry opt(·, jG) compressed
//     to at most H intervals, plus the δ_{k,k+1} "technical detail" values;
//   * horizontal grid lines carry opt(iG, ·);
//   * a subgrid ("box") of size G×G is *crossed* if its four corner opt
//     values disagree; Lemma 3.11 bounds crossed boxes by O(nH/G);
//   * crossed boxes are solved locally from O(G)-sized inputs: boundary opt
//     chains, δ anchors on the right boundary, and the row/column strip
//     points (our packing sends a point to every crossed box of its
//     row/column block with matching color — a factor-H relaxation of the
//     Lemma 3.12 packing, documented in docs/ARCHITECTURE.md,
//     "Deviations from the paper");
//   * points in uncrossed boxes survive iff their color equals the box's
//     uniform opt value; interesting cells (Lemma 3.9) are added by the box
//     solver.
//
// This module is pure sequential logic. The MPC algorithm (core/) reuses
// LineData and solve_box and replaces the line sweeps by the O(1)-round
// tree descent over batched rank queries.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "monge/delta.h"
#include "monge/permutation.h"

namespace monge {

/// opt(·) along one grid line, compressed to intervals, plus anchors.
struct LineData {
  /// Position of the line (a column for vertical lines, a row for
  /// horizontal ones), in [0, n].
  std::int64_t pos = 0;
  /// Interval starts: opt equals value[k] on [start[k], start[k+1]).
  /// start[0] == 0, starts strictly increasing, values strictly increasing.
  std::vector<std::int64_t> start;
  std::vector<std::int32_t> value;
  /// For vertical lines only: delta_anchor[g][k-kmin] with kmin=0 here:
  /// δ_{k,k+1}(gG, pos) for every grid row index g and every k in [0,H-1).
  /// (O((n/G)·H) words per line.)
  std::vector<std::vector<std::int64_t>> grid_anchors;

  /// opt at a coordinate t in [0, n].
  std::int32_t opt_at(std::int64_t t) const;
};

/// Sweeps F_q(i, col) over i for a vertical line (exact, O(nH)).
/// grid_g > 0 also records δ anchors at multiples of grid_g.
LineData sweep_vertical_line(const ColoredPointSet& s, std::int64_t col,
                             std::int64_t grid_g);

/// Sweeps F_q(row, j) over j for a horizontal line (exact, O(nH)).
LineData sweep_horizontal_line(const ColoredPointSet& s, std::int64_t row);

/// One crossed subgrid instance (§3.3). Lattice rows [r0, r1] and columns
/// [c0, c1]; cells [r0,r1) × [c0,c1).
struct BoxTask {
  std::int64_t r0, r1, c0, c1;
  std::int32_t kmin, kmax;  // corner opt range; demarcation lines kmin..kmax-1
  std::vector<std::int32_t> top_opt;    // opt(r0, c), c in [c0..c1]
  std::vector<std::int32_t> right_opt;  // opt(r, c1), r in [r0..r1]
  /// δ_{kmin+t, kmin+t+1}(r0, c1) for t in [0, kmax-kmin).
  std::vector<std::int64_t> anchor;
  /// Points with row in [r0, r1), color in [kmin, kmax] (whole rows).
  std::vector<ColoredPoint> row_points;
  /// Points with col in [c0, c1), color in [kmin, kmax] (whole columns).
  std::vector<ColoredPoint> col_points;
};

struct BoxResult {
  std::vector<Point> interesting;  // Lemma 3.9 cells (always PC = 1)
  /// Points inside the box that survive (color == opt(r+1,c+1) and cell not
  /// interesting).
  std::vector<Point> surviving;
};

/// Solves one crossed box with the §3.3 frontier DP.
/// O((r1-r0)(c1-c0)(kmax-kmin)) time, O(G + H) extra space.
BoxResult solve_box(const BoxTask& task);

struct MultiwayStats {
  std::int64_t lines = 0;
  std::int64_t crossed_boxes = 0;
  std::int64_t interesting_points = 0;
};

/// Full sequential combine with grid spacing `box_g`; reference
/// implementation for the distributed version. Requires a full union.
Perm multiway_combine_seq(const ColoredPointSet& s, std::int64_t box_g,
                          MultiwayStats* stats = nullptr);

}  // namespace monge
