// Shared helpers for the test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "monge/engine.h"
#include "monge/permutation.h"
#include "oracles/delta.h"
#include "oracles/distribution.h"
#include "util/check.h"

namespace monge::testing {

/// PA ⊡ PB of full permutations into a fresh vector (multiply_into).
inline std::vector<std::int32_t> raw_product(SeaweedEngine& engine,
                                             PermView a, PermView b) {
  std::vector<std::int32_t> out(a.size());
  engine.multiply_into(a, b, out);
  return out;
}

/// Subunit PA ⊡ PB into a fresh vector (subunit_multiply_into).
inline std::vector<std::int32_t> subunit_raw_product(SeaweedEngine& engine,
                                                     PermView a, PermView b,
                                                     std::int64_t b_cols) {
  std::vector<std::int32_t> out(a.size());
  engine.subunit_multiply_into(a, b, b_cols, out);
  return out;
}

/// One subunit product per pair, in one subunit_multiply_batch_into call.
inline std::vector<std::vector<std::int32_t>> subunit_raw_batch(
    SeaweedEngine& engine, std::span<const SubunitPairView> pairs) {
  std::vector<std::vector<std::int32_t>> out(pairs.size());
  std::vector<std::span<std::int32_t>> outs;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    out[i].resize(pairs[i].a.size());
    outs.push_back(out[i]);
  }
  engine.subunit_multiply_batch_into(pairs, outs);
  return out;
}

/// Performs the §3.1 decomposition of a product PA ⊡ PB into H colored
/// subproblem results: PA is split into H column blocks, PB into H row
/// blocks, each pair is compacted, multiplied (with the naive oracle),
/// re-expanded through M_A/M_B, and the union is returned as a colored
/// point set. Lemma 3.2 says combining this set must reproduce PA ⊡ PB.
inline ColoredPointSet make_colored_split(const Perm& a, const Perm& b,
                                          std::int32_t h) {
  const std::int64_t n = a.rows();
  MONGE_CHECK(a.is_full_permutation() && b.is_full_permutation());
  MONGE_CHECK(b.rows() == n && h >= 1);

  std::vector<ColoredPoint> pts;
  for (std::int32_t q = 0; q < h; ++q) {
    const std::int64_t c_lo = q * n / h;
    const std::int64_t c_hi = (q + 1) * n / h;
    if (c_lo == c_hi) continue;

    // PA,q: rows of A whose column lies in [c_lo, c_hi), compacted.
    std::vector<std::int32_t> rows_a;
    Perm pa(c_hi - c_lo, c_hi - c_lo);
    for (std::int64_t r = 0; r < n; ++r) {
      const std::int32_t c = a.col_of(r);
      if (c >= c_lo && c < c_hi) {
        pa.set(static_cast<std::int64_t>(rows_a.size()), c - c_lo);
        rows_a.push_back(static_cast<std::int32_t>(r));
      }
    }
    // PB,q: rows [c_lo, c_hi) of B, columns compacted by rank.
    std::vector<std::int32_t> cols_b;
    for (std::int64_t r = c_lo; r < c_hi; ++r) cols_b.push_back(b.col_of(r));
    std::sort(cols_b.begin(), cols_b.end());
    Perm pb(c_hi - c_lo, c_hi - c_lo);
    for (std::int64_t r = c_lo; r < c_hi; ++r) {
      const auto it =
          std::lower_bound(cols_b.begin(), cols_b.end(), b.col_of(r));
      pb.set(r - c_lo, it - cols_b.begin());
    }

    const Perm pc = multiply_naive(pa, pb);
    for (const Point& p : pc.points()) {
      pts.push_back(ColoredPoint{rows_a[static_cast<std::size_t>(p.row)],
                                 cols_b[static_cast<std::size_t>(p.col)], q});
    }
  }
  ColoredPointSet set(n, h, std::move(pts));
  MONGE_CHECK(set.is_full_union());
  return set;
}

/// All permutations of [0,n) in lexicographic order (n small).
inline std::vector<std::vector<std::int32_t>> all_permutations(int n) {
  std::vector<std::int32_t> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  std::vector<std::vector<std::int32_t>> out;
  do {
    out.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

}  // namespace monge::testing
