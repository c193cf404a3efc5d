#include "oracles/steady_ant.h"

#include <algorithm>

#include "util/check.h"

namespace monge {

namespace {

/// δ(i, j+1) − δ(i, j): contribution of the point in column j (Lemma 3.3).
/// color 0 (the paper's q): +1 iff its row >= i; color 1 (r): +1 iff row < i.
inline std::int64_t col_step(std::int64_t point_row, std::uint8_t color,
                             std::int64_t i) {
  return color == 0 ? (point_row >= i ? 1 : 0) : (point_row < i ? 1 : 0);
}

/// δ(i+1, j) − δ(i, j): contribution of the point in row i (Lemma 3.4).
/// color 0: +1 iff its column >= j; color 1: +1 iff column < j.
inline std::int64_t row_step(std::int64_t point_col, std::uint8_t color,
                             std::int64_t j) {
  return color == 0 ? (point_col >= j ? 1 : 0) : (point_col < j ? 1 : 0);
}

}  // namespace

std::vector<std::int64_t> steady_ant_thresholds(
    std::span<const std::int32_t> rc, std::span<const std::uint8_t> color) {
  const std::int64_t n = static_cast<std::int64_t>(rc.size());
  MONGE_DCHECK(color.size() == rc.size());

  // col -> (row, color) of the unique point in that column.
  std::vector<std::int32_t> col_row(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> col_color(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int32_t c = rc[static_cast<std::size_t>(r)];
    MONGE_DCHECK(c >= 0 && c < n);
    col_row[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(r);
    col_color[static_cast<std::size_t>(c)] = color[static_cast<std::size_t>(r)];
  }

  std::vector<std::int64_t> t(static_cast<std::size_t>(n) + 1);
  // δ(i, 0) = −R_0(i) <= 0 for every i, so t(0) = n; δ(n, 0) = 0.
  std::int64_t i = n;
  std::int64_t delta = 0;
  t[0] = n;
  for (std::int64_t j = 0; j < n; ++j) {
    // Move right: δ(i, j) -> δ(i, j+1).
    delta += col_step(col_row[static_cast<std::size_t>(j)],
                      col_color[static_cast<std::size_t>(j)], i);
    // Descend while the invariant δ(i, j+1) <= 0 is violated. δ(0, ·) <= 0
    // always, so the loop terminates with i >= 0.
    while (delta > 0) {
      MONGE_DCHECK(i > 0);
      --i;
      delta -= row_step(rc[static_cast<std::size_t>(i)],
                        color[static_cast<std::size_t>(i)], j + 1);
    }
    t[static_cast<std::size_t>(j) + 1] = i;
  }
  return t;
}

std::vector<std::int32_t> steady_ant_combine_raw(
    std::span<const std::int32_t> rc, std::span<const std::uint8_t> color) {
  const std::int64_t n = static_cast<std::int64_t>(rc.size());
  const std::vector<std::int64_t> t = steady_ant_thresholds(rc, color);

  // A cell (r,c) is "interesting" (Lemma 3.9) iff its corner pattern is
  // opt(r,c) = opt(r,c+1) = opt(r+1,c) = 0 and opt(r+1,c+1) = 1, i.e.
  // r == t[c+1] and r + 1 <= t[c] — exactly one per strict drop of t.
  const auto interesting = [&](std::int64_t r, std::int64_t c) {
    return r == t[static_cast<std::size_t>(c) + 1] &&
           r + 1 <= t[static_cast<std::size_t>(c)];
  };

  std::vector<std::int32_t> out(static_cast<std::size_t>(n), kNone);
  for (std::int64_t c = 0; c < n; ++c) {
    if (t[static_cast<std::size_t>(c) + 1] < t[static_cast<std::size_t>(c)]) {
      const std::int64_t r = t[static_cast<std::size_t>(c) + 1];
      MONGE_DCHECK(out[static_cast<std::size_t>(r)] == kNone);
      out[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(c);
    }
  }
  // Every other cell: PC(r,c) = PC,e(r,c) with e = opt(r+1, c+1)
  // (Lemmas 3.7/3.8/3.10; see combine_opt_table for the derivation).
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int64_t c = rc[static_cast<std::size_t>(r)];
    if (interesting(r, c)) continue;  // already handled above
    const std::uint8_t e =
        (r + 1 <= t[static_cast<std::size_t>(c) + 1]) ? 0 : 1;
    if (color[static_cast<std::size_t>(r)] == e) {
      MONGE_DCHECK(out[static_cast<std::size_t>(r)] == kNone);
      out[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(c);
    }
  }
  return out;
}

Perm steady_ant_combine(const Perm& union_perm,
                        const std::vector<std::uint8_t>& row_color) {
  MONGE_CHECK(union_perm.is_full_permutation());
  MONGE_CHECK(static_cast<std::int64_t>(row_color.size()) ==
              union_perm.rows());
  Perm out = Perm::from_rows(
      steady_ant_combine_raw(union_perm.row_to_col(), row_color),
      union_perm.cols());
  MONGE_CHECK_MSG(out.is_full_permutation(),
                  "steady ant did not produce a permutation");
  return out;
}

}  // namespace monge
