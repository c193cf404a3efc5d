// The sequential §3.2/§3.3 multi-way combine: exact O(nH) sweeps of the
// vertical and horizontal grid lines and the whole-grid combine built from
// them and solve_box (monge/multiway.h). This is the reference the MPC
// grid-line descent in core/ is tested against; the library itself never
// sweeps a line sequentially.
#pragma once

#include <cstdint>
#include <vector>

#include "monge/multiway.h"
#include "monge/permutation.h"
#include "oracles/delta.h"

namespace monge {

/// A swept vertical line: its opt intervals plus, at every grid row g·G,
/// the anchors grid_anchors[g][k] = δ_{k,k+1}(gG, pos) for every k in
/// [0, H-1) (O((n/G)·H) words per line) that seed the crossed boxes to
/// the left of it.
struct SweptLine : LineData {
  std::vector<std::vector<std::int64_t>> grid_anchors;
};

/// Sweeps F_q(i, col) over i for a vertical line (exact, O(nH)).
/// grid_g > 0 also records δ anchors at multiples of grid_g.
SweptLine sweep_vertical_line(const ColoredPointSet& s, std::int64_t col,
                              std::int64_t grid_g);

/// Sweeps F_q(row, j) over j for a horizontal line (exact, O(nH)).
LineData sweep_horizontal_line(const ColoredPointSet& s, std::int64_t row);

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
