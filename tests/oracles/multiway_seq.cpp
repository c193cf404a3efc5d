#include "oracles/multiway_seq.h"

#include <algorithm>

#include "util/check.h"
#include "util/math.h"

namespace monge {

namespace {

struct SweepState {
  std::vector<std::int64_t> f;  // F_q at the current sweep position

  std::int32_t argmin() const {
    std::int32_t best = 0;
    for (std::int32_t q = 1; q < static_cast<std::int32_t>(f.size()); ++q) {
      if (f[static_cast<std::size_t>(q)] < f[static_cast<std::size_t>(best)]) {
        best = q;
      }
    }
    return best;
  }
};

}  // namespace

SweptLine sweep_vertical_line(const ColoredPointSet& s, std::int64_t col,
                              std::int64_t grid_g) {
  const std::int64_t n = s.n();
  const auto h = static_cast<std::size_t>(s.num_colors());
  MONGE_CHECK(col >= 0 && col <= n);

  // Row-indexed lookup of the unique point per row.
  std::vector<std::int32_t> row_color(static_cast<std::size_t>(n), kNone);
  std::vector<std::int32_t> row_col(static_cast<std::size_t>(n), kNone);
  for (const auto& p : s.points()) {
    row_color[static_cast<std::size_t>(p.row)] = p.color;
    row_col[static_cast<std::size_t>(p.row)] = static_cast<std::int32_t>(p.col);
  }

  // F_q(n, col) = Σ_{x>q} C_x(col).
  std::vector<std::int64_t> c_below(h, 0);  // C_x(col)
  for (const auto& p : s.points()) {
    if (p.col < col) ++c_below[static_cast<std::size_t>(p.color)];
  }
  SweepState st;
  st.f.assign(h, 0);
  for (std::size_t q = 0; q < h; ++q) {
    for (std::size_t x = q + 1; x < h; ++x) st.f[q] += c_below[x];
  }

  // Sweep i = n down to 0; record opt changes and grid anchors. A change
  // between i+1 and i means the value opt(i+1) occupies an interval that
  // starts at i+1.
  const std::int64_t anchors =
      grid_g > 0 ? n / grid_g + 1 : 0;  // grid rows 0, G, 2G, ... <= n
  SweptLine out;
  out.pos = col;
  out.grid_anchors.assign(static_cast<std::size_t>(anchors),
                          std::vector<std::int64_t>(h > 0 ? h - 1 : 0, 0));
  std::vector<std::int64_t> rev_start;
  std::vector<std::int32_t> rev_value;
  std::int32_t cur = st.argmin();

  const auto record_anchor = [&](std::int64_t i) {
    if (grid_g <= 0 || i % grid_g != 0 || i / grid_g >= anchors) return;
    auto& a = out.grid_anchors[static_cast<std::size_t>(i / grid_g)];
    for (std::size_t k = 0; k + 1 < h; ++k) {
      a[k] = st.f[k] - st.f[k + 1];  // δ_{k,k+1}(i, col)
    }
  };
  record_anchor(n);

  for (std::int64_t i = n - 1; i >= 0; --i) {
    // Add row i: F_q gains [x<q] + [x==q][pc<col].
    const std::int32_t x = row_color[static_cast<std::size_t>(i)];
    if (x != kNone) {
      const std::int32_t pc = row_col[static_cast<std::size_t>(i)];
      for (std::size_t q = static_cast<std::size_t>(x) + 1; q < h; ++q) {
        ++st.f[q];
      }
      if (pc < col) ++st.f[static_cast<std::size_t>(x)];
    }
    const std::int32_t o = st.argmin();
    if (o != cur) {
      rev_start.push_back(i + 1);
      rev_value.push_back(cur);
      cur = o;
    }
    record_anchor(i);
  }
  rev_start.push_back(0);
  rev_value.push_back(cur);

  for (std::size_t k = rev_start.size(); k-- > 0;) {
    out.start.push_back(rev_start[k]);
    out.value.push_back(rev_value[k]);
  }
  return out;
}

LineData sweep_horizontal_line(const ColoredPointSet& s, std::int64_t row) {
  const std::int64_t n = s.n();
  const auto h = static_cast<std::size_t>(s.num_colors());
  MONGE_CHECK(row >= 0 && row <= n);

  std::vector<std::int32_t> col_color(static_cast<std::size_t>(n), kNone);
  std::vector<std::int32_t> col_row(static_cast<std::size_t>(n), kNone);
  std::vector<std::int64_t> r_above(h, 0);  // R_x(row)
  for (const auto& p : s.points()) {
    col_color[static_cast<std::size_t>(p.col)] = p.color;
    col_row[static_cast<std::size_t>(p.col)] = static_cast<std::int32_t>(p.row);
    if (p.row >= row) ++r_above[static_cast<std::size_t>(p.color)];
  }

  // F_q(row, 0) = Σ_{x<q} R_x(row).
  SweepState st;
  st.f.assign(h, 0);
  for (std::size_t q = 0; q < h; ++q) {
    for (std::size_t x = 0; x < q; ++x) st.f[q] += r_above[x];
  }

  LineData out;
  out.pos = row;
  std::int32_t cur = st.argmin();
  out.start.push_back(0);
  out.value.push_back(cur);
  for (std::int64_t j = 0; j < n; ++j) {
    // Cross column j: F_q gains [x>q] + [x==q][pr>=row].
    const std::int32_t x = col_color[static_cast<std::size_t>(j)];
    if (x != kNone) {
      const std::int32_t pr = col_row[static_cast<std::size_t>(j)];
      for (std::size_t q = 0; q < static_cast<std::size_t>(x); ++q) ++st.f[q];
      if (pr >= row) ++st.f[static_cast<std::size_t>(x)];
    }
    const std::int32_t o = st.argmin();
    if (o != cur) {
      cur = o;
      out.start.push_back(j + 1);
      out.value.push_back(o);
    }
  }
  return out;
}

Perm multiway_combine_seq(const ColoredPointSet& s, std::int64_t box_g,
                          MultiwayStats* stats) {
  MONGE_CHECK_MSG(s.is_full_union(),
                  "multiway combine requires a full colored union");
  const std::int64_t n = s.n();
  const std::int64_t g = std::clamp<std::int64_t>(box_g, 1, n);
  const std::int64_t nb = ceil_div(n, g);

  // Grid lines. Vertical line J sits at column min(J*g, n); similarly for
  // horizontal lines.
  std::vector<SweptLine> vlines;
  std::vector<LineData> hlines;
  for (std::int64_t j = 0; j <= nb; ++j) {
    vlines.push_back(sweep_vertical_line(s, std::min(j * g, n), g));
  }
  for (std::int64_t i = 0; i <= nb; ++i) {
    hlines.push_back(sweep_horizontal_line(s, std::min(i * g, n)));
  }
  if (stats) stats->lines = 2 * (nb + 1);

  // Corner opts: corner(I, J) = opt(min(I*g,n), min(J*g,n)).
  const auto corner = [&](std::int64_t i, std::int64_t j) {
    return vlines[static_cast<std::size_t>(j)].opt_at(std::min(i * g, n));
  };

  Perm out(n, n);
  std::int64_t interesting_total = 0, crossed_total = 0;
  const auto add_point = [&](const Point& p) {
    MONGE_CHECK_MSG(out.row_empty(p.row), "duplicate output row " << p.row);
    out.set(p.row, p.col);
  };

  // Crossed boxes get the §3.3 treatment; points in uncrossed boxes are
  // filtered by the box's uniform opt value.
  std::vector<std::vector<std::int32_t>> box_state(
      static_cast<std::size_t>(nb),
      std::vector<std::int32_t>(static_cast<std::size_t>(nb)));
  for (std::int64_t bi = 0; bi < nb; ++bi) {
    for (std::int64_t bj = 0; bj < nb; ++bj) {
      const std::int32_t c00 = corner(bi, bj), c01 = corner(bi, bj + 1),
                         c10 = corner(bi + 1, bj), c11 = corner(bi + 1, bj + 1);
      if (c00 == c01 && c00 == c10 && c00 == c11) {
        box_state[static_cast<std::size_t>(bi)][static_cast<std::size_t>(bj)] =
            c00;  // uniform value
        continue;
      }
      box_state[static_cast<std::size_t>(bi)][static_cast<std::size_t>(bj)] =
          -1;  // crossed
      ++crossed_total;

      BoxTask task;
      task.r0 = bi * g;
      task.r1 = std::min((bi + 1) * g, n);
      task.c0 = bj * g;
      task.c1 = std::min((bj + 1) * g, n);
      task.kmin = std::min(std::min(c00, c01), std::min(c10, c11));
      task.kmax = std::max(std::max(c00, c01), std::max(c10, c11));
      const LineData& top = hlines[static_cast<std::size_t>(bi)];
      const SweptLine& right = vlines[static_cast<std::size_t>(bj) + 1];
      for (std::int64_t c = task.c0; c <= task.c1; ++c) {
        task.top_opt.push_back(top.opt_at(c));
      }
      for (std::int64_t r = task.r0; r <= task.r1; ++r) {
        task.right_opt.push_back(right.opt_at(r));
      }
      const auto& anchors =
          right.grid_anchors[static_cast<std::size_t>(task.r0 / g)];
      for (std::int32_t k = task.kmin; k < task.kmax; ++k) {
        task.anchor.push_back(anchors[static_cast<std::size_t>(k)]);
      }
      for (const auto& p : s.points()) {
        if (p.color < task.kmin || p.color > task.kmax) continue;
        if (p.row >= task.r0 && p.row < task.r1) task.row_points.push_back(p);
        if (p.col >= task.c0 && p.col < task.c1) task.col_points.push_back(p);
      }

      const BoxResult res = solve_box(task);
      interesting_total += static_cast<std::int64_t>(res.interesting.size());
      for (const Point& p : res.interesting) add_point(p);
      for (const Point& p : res.surviving) add_point(p);
    }
  }

  for (const auto& p : s.points()) {
    const std::int64_t bi = p.row / g, bj = p.col / g;
    const std::int32_t state =
        box_state[static_cast<std::size_t>(bi)][static_cast<std::size_t>(bj)];
    if (state >= 0 && p.color == state) add_point(Point{p.row, p.col});
  }

  if (stats) {
    stats->crossed_boxes = crossed_total;
    stats->interesting_points = interesting_total;
  }
  MONGE_CHECK_MSG(out.is_full_permutation(),
                  "multiway combine did not produce a permutation");
  return out;
}

}  // namespace monge
