#include "monge/multiway.h"

#include <algorithm>

#include "util/check.h"

namespace monge {

std::int32_t LineData::opt_at(std::int64_t t) const {
  MONGE_DCHECK(!start.empty() && start[0] == 0);
  const auto it = std::upper_bound(start.begin(), start.end(), t);
  return value[static_cast<std::size_t>(it - start.begin() - 1)];
}

BoxResult solve_box(const BoxTask& t) {
  const std::int64_t rows = t.r1 - t.r0;
  const std::int64_t cols = t.c1 - t.c0;
  const std::int32_t kspan = t.kmax - t.kmin;  // demarcation pairs in play
  MONGE_CHECK(rows >= 1 && cols >= 1 && kspan >= 1);
  MONGE_CHECK(static_cast<std::int64_t>(t.top_opt.size()) == cols + 1);
  MONGE_CHECK(static_cast<std::int64_t>(t.right_opt.size()) == rows + 1);
  MONGE_CHECK(static_cast<std::int64_t>(t.anchor.size()) == kspan);

  // Per-row / per-column point lookup (at most one each by uniqueness).
  std::vector<std::int32_t> rp_col(static_cast<std::size_t>(rows), kNone);
  std::vector<std::int32_t> rp_color(static_cast<std::size_t>(rows), kNone);
  for (const auto& p : t.row_points) {
    MONGE_DCHECK(p.row >= t.r0 && p.row < t.r1);
    rp_col[static_cast<std::size_t>(p.row - t.r0)] =
        static_cast<std::int32_t>(p.col);
    rp_color[static_cast<std::size_t>(p.row - t.r0)] = p.color;
  }
  std::vector<std::int32_t> cp_row(static_cast<std::size_t>(cols), kNone);
  std::vector<std::int32_t> cp_color(static_cast<std::size_t>(cols), kNone);
  for (const auto& p : t.col_points) {
    MONGE_DCHECK(p.col >= t.c0 && p.col < t.c1);
    cp_row[static_cast<std::size_t>(p.col - t.c0)] =
        static_cast<std::int32_t>(p.row);
    cp_color[static_cast<std::size_t>(p.col - t.c0)] = p.color;
  }

  BoxResult out;
  std::vector<std::int64_t> anchor = t.anchor;  // δ_{k,k+1}(r, c1)
  std::vector<std::int64_t> delta(static_cast<std::size_t>(kspan));
  std::vector<std::int32_t> opt_prev(t.top_opt.begin(), t.top_opt.end());
  std::vector<std::int32_t> opt_cur(static_cast<std::size_t>(cols) + 1);

  for (std::int64_t r = t.r0 + 1; r <= t.r1; ++r) {
    // Advance the right-boundary anchors across row r-1 (Lemma 3.4 step).
    const std::int32_t arc = rp_col[static_cast<std::size_t>(r - 1 - t.r0)];
    const std::int32_t arx = rp_color[static_cast<std::size_t>(r - 1 - t.r0)];
    if (arx != kNone) {
      for (std::int32_t k = 0; k < kspan; ++k) {
        const std::int32_t lo = t.kmin + k;
        if (arx == lo) {
          anchor[static_cast<std::size_t>(k)] += (arc >= t.c1) ? 1 : 0;
        } else if (arx == lo + 1) {
          anchor[static_cast<std::size_t>(k)] += (arc < t.c1) ? 1 : 0;
        }
      }
    }

    delta = anchor;  // δ_{k,k+1}(r, c1)
    opt_cur[static_cast<std::size_t>(cols)] =
        t.right_opt[static_cast<std::size_t>(r - t.r0)];

    for (std::int64_t c = t.c1 - 1; c >= t.c0; --c) {
      // δ(r, c) = δ(r, c+1) − colstep(point in column c; r)  (Lemma 3.3).
      const std::int32_t pcr = cp_row[static_cast<std::size_t>(c - t.c0)];
      const std::int32_t pcx = cp_color[static_cast<std::size_t>(c - t.c0)];
      if (pcx != kNone) {
        for (std::int32_t k = 0; k < kspan; ++k) {
          const std::int32_t lo = t.kmin + k;
          if (pcx == lo) {
            delta[static_cast<std::size_t>(k)] -= (pcr >= r) ? 1 : 0;
          } else if (pcx == lo + 1) {
            delta[static_cast<std::size_t>(k)] -= (pcr < r) ? 1 : 0;
          }
        }
      }

      // opt(r, c) from opt(r-1, c) <= opt(r, c) <= opt(r, c+1) and the
      // consecutive differences: F_k = F_a − Σ_{t=a}^{k-1} δ_{t,t+1}, so the
      // minimiser is the smallest k maximising the prefix sum.
      const std::int32_t a = opt_prev[static_cast<std::size_t>(c - t.c0)];
      const std::int32_t b = opt_cur[static_cast<std::size_t>(c - t.c0) + 1];
      std::int32_t o = a;
      if (a != b) {
        std::int64_t sum = 0, best = 0;
        for (std::int32_t k = a + 1; k <= b; ++k) {
          sum += delta[static_cast<std::size_t>(k - 1 - t.kmin)];
          if (sum > best) {
            best = sum;
            o = k;
          }
        }
      }
      opt_cur[static_cast<std::size_t>(c - t.c0)] = o;

      // Cell (r-1, c): interesting iff opt(r-1,c) = opt(r-1,c+1) = opt(r,c)
      // differ from opt(r,c+1) (Lemma 3.9).
      const bool interesting =
          a == opt_prev[static_cast<std::size_t>(c - t.c0) + 1] && a == o &&
          a != b;
      if (interesting) out.interesting.push_back(Point{r - 1, c});

      // Fate of the point in this cell, if any: PC = PC,e with
      // e = opt(r, c+1) unless the cell is interesting (Lemmas 3.7–3.10).
      if (arc == c && arx != kNone && !interesting && arx == b) {
        out.surviving.push_back(Point{r - 1, c});
      }
    }
    opt_prev.assign(opt_cur.begin(), opt_cur.end());
  }
  return out;
}

}  // namespace monge
