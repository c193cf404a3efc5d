#include "oracles/delta.h"

#include <algorithm>

#include "util/check.h"

namespace monge {

ColoredPointSet::ColoredPointSet(std::int64_t n, std::int32_t num_colors,
                                 std::vector<ColoredPoint> pts)
    : n_(n), num_colors_(num_colors), pts_(std::move(pts)) {
  for (const auto& p : pts_) {
    MONGE_CHECK(p.row >= 0 && p.row < n_ && p.col >= 0 && p.col < n_);
    MONGE_CHECK(p.color >= 0 && p.color < num_colors_);
  }
}

ColoredPointSet ColoredPointSet::from_subperms(const std::vector<Perm>& subs) {
  MONGE_CHECK(!subs.empty());
  const std::int64_t n = subs[0].rows();
  std::vector<ColoredPoint> pts;
  for (std::size_t x = 0; x < subs.size(); ++x) {
    MONGE_CHECK(subs[x].rows() == n && subs[x].cols() == n);
    for (const Point& p : subs[x].points()) {
      pts.push_back(ColoredPoint{p.row, p.col, static_cast<std::int32_t>(x)});
    }
  }
  return ColoredPointSet(n, static_cast<std::int32_t>(subs.size()),
                         std::move(pts));
}

bool ColoredPointSet::is_full_union() const {
  if (static_cast<std::int64_t>(pts_.size()) != n_) return false;
  std::vector<bool> row_seen(static_cast<std::size_t>(n_), false);
  std::vector<bool> col_seen(static_cast<std::size_t>(n_), false);
  for (const auto& p : pts_) {
    if (row_seen[static_cast<std::size_t>(p.row)] ||
        col_seen[static_cast<std::size_t>(p.col)]) {
      return false;
    }
    row_seen[static_cast<std::size_t>(p.row)] = true;
    col_seen[static_cast<std::size_t>(p.col)] = true;
  }
  return true;
}

std::int64_t ColoredPointSet::A(std::int32_t x, std::int64_t i,
                                std::int64_t j) const {
  std::int64_t k = 0;
  for (const auto& p : pts_) {
    k += (p.color == x && p.row >= i && p.col < j);
  }
  return k;
}

std::int64_t ColoredPointSet::C(std::int32_t x, std::int64_t j) const {
  return A(x, 0, j);
}

std::int64_t ColoredPointSet::R(std::int32_t x, std::int64_t i) const {
  return A(x, i, n_);
}

std::int64_t ColoredPointSet::F(std::int32_t q, std::int64_t i,
                                std::int64_t j) const {
  std::int64_t v = A(q, i, j);
  for (std::int32_t x = 0; x < q; ++x) v += R(x, i);
  for (std::int32_t x = q + 1; x < num_colors_; ++x) v += C(x, j);
  return v;
}

std::int64_t ColoredPointSet::delta(std::int32_t q, std::int32_t r,
                                    std::int64_t i, std::int64_t j) const {
  MONGE_CHECK(q < r);
  return F(q, i, j) - F(r, i, j);
}

std::int32_t ColoredPointSet::opt(std::int64_t i, std::int64_t j) const {
  std::int32_t best = 0;
  std::int64_t best_v = F(0, i, j);
  for (std::int32_t q = 1; q < num_colors_; ++q) {
    const std::int64_t v = F(q, i, j);
    if (v < best_v) {
      best_v = v;
      best = q;
    }
  }
  return best;
}

Perm ColoredPointSet::color_slice(std::int32_t x) const {
  Perm p(n_, n_);
  for (const auto& pt : pts_) {
    if (pt.color == x) p.set(pt.row, pt.col);
  }
  return p;
}

Perm combine_opt_table(const ColoredPointSet& s) {
  MONGE_CHECK_MSG(s.is_full_union(),
                  "combine requires the colored union to be a permutation");
  const std::int64_t n = s.n();
  // Precompute the opt table once (the per-query brute force would be
  // O(n^3 * H) otherwise).
  std::vector<std::int32_t> opt(static_cast<std::size_t>((n + 1) * (n + 1)));
  for (std::int64_t i = 0; i <= n; ++i) {
    for (std::int64_t j = 0; j <= n; ++j) {
      opt[static_cast<std::size_t>(i * (n + 1) + j)] = s.opt(i, j);
    }
  }
  const auto at = [&](std::int64_t i, std::int64_t j) {
    return opt[static_cast<std::size_t>(i * (n + 1) + j)];
  };

  // color_of[r][c] lookup for Lemma 3.10 cells.
  std::vector<std::int32_t> cell_color(static_cast<std::size_t>(n), kNone);
  std::vector<std::int32_t> cell_col(static_cast<std::size_t>(n), kNone);
  for (const auto& p : s.points()) {
    cell_color[static_cast<std::size_t>(p.row)] = p.color;
    cell_col[static_cast<std::size_t>(p.row)] = static_cast<std::int32_t>(p.col);
  }

  Perm out(n, n);
  for (std::int64_t r = 0; r < n; ++r) {
    for (std::int64_t c = 0; c < n; ++c) {
      const std::int32_t a = at(r, c), b = at(r, c + 1), d = at(r + 1, c),
                         e = at(r + 1, c + 1);
      if (a == b && a == d && a != e) {
        // Lemma 3.9: interesting point, PC(r,c) = 1.
        MONGE_CHECK(out.row_empty(r));
        out.set(r, c);
      } else {
        // Lemmas 3.7/3.8/3.10: in every other corner pattern the proofs give
        // PΣ_C = F_e on all four corners with e = opt(r+1, c+1), hence
        // PC(r,c) = PC,e(r,c). (When all corners agree this is Lemma 3.10.)
        if (cell_col[static_cast<std::size_t>(r)] == c &&
            cell_color[static_cast<std::size_t>(r)] == e) {
          MONGE_CHECK(out.row_empty(r));
          out.set(r, c);
        }
      }
    }
  }
  MONGE_CHECK_MSG(out.is_full_permutation(),
                  "combine did not produce a permutation");
  return out;
}

}  // namespace monge
