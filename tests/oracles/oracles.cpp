#include "oracles/oracles.h"

#include <algorithm>

#include "lis/sequential.h"
#include "monge/engine.h"
#include "monge/subperm.h"
#include "oracles/steady_ant.h"
#include "util/check.h"

namespace monge {

namespace {

std::vector<std::int32_t> mul_rec(const std::vector<std::int32_t>& a,
                                  const std::vector<std::int32_t>& b) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  if (n == 0) return {};
  if (n == 1) return {0};

  const std::int64_t m = n / 2;

  // Split PA by columns into [0,m) and [m,n); compact by deleting empty
  // rows. Rows keep their relative order, so M_A^{-1} is just the sorted
  // list of surviving original rows.
  std::vector<std::int32_t> a_lo, a_hi, rows_lo, rows_hi;
  a_lo.reserve(static_cast<std::size_t>(m));
  rows_lo.reserve(static_cast<std::size_t>(m));
  a_hi.reserve(static_cast<std::size_t>(n - m));
  rows_hi.reserve(static_cast<std::size_t>(n - m));
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int32_t c = a[static_cast<std::size_t>(r)];
    if (c < m) {
      a_lo.push_back(c);
      rows_lo.push_back(static_cast<std::int32_t>(r));
    } else {
      a_hi.push_back(static_cast<std::int32_t>(c - m));
      rows_hi.push_back(static_cast<std::int32_t>(r));
    }
  }

  // Split PB by rows into [0,m) and [m,n); compact by deleting empty
  // columns, relabelling each surviving column by its rank (M_B).
  std::vector<std::uint8_t> col_in_lo(static_cast<std::size_t>(n), 0);
  for (std::int64_t r = 0; r < m; ++r) {
    col_in_lo[static_cast<std::size_t>(b[static_cast<std::size_t>(r)])] = 1;
  }
  std::vector<std::int32_t> col_rank(static_cast<std::size_t>(n));
  std::vector<std::int32_t> cols_lo, cols_hi;  // M_B^{-1} per subproblem
  cols_lo.reserve(static_cast<std::size_t>(m));
  cols_hi.reserve(static_cast<std::size_t>(n - m));
  for (std::int64_t c = 0; c < n; ++c) {
    if (col_in_lo[static_cast<std::size_t>(c)]) {
      col_rank[static_cast<std::size_t>(c)] =
          static_cast<std::int32_t>(cols_lo.size());
      cols_lo.push_back(static_cast<std::int32_t>(c));
    } else {
      col_rank[static_cast<std::size_t>(c)] =
          static_cast<std::int32_t>(cols_hi.size());
      cols_hi.push_back(static_cast<std::int32_t>(c));
    }
  }
  std::vector<std::int32_t> b_lo(static_cast<std::size_t>(m));
  std::vector<std::int32_t> b_hi(static_cast<std::size_t>(n - m));
  for (std::int64_t r = 0; r < m; ++r) {
    b_lo[static_cast<std::size_t>(r)] =
        col_rank[static_cast<std::size_t>(b[static_cast<std::size_t>(r)])];
  }
  for (std::int64_t r = m; r < n; ++r) {
    b_hi[static_cast<std::size_t>(r - m)] =
        col_rank[static_cast<std::size_t>(b[static_cast<std::size_t>(r)])];
  }

  const std::vector<std::int32_t> c_lo = mul_rec(a_lo, b_lo);
  const std::vector<std::int32_t> c_hi = mul_rec(a_hi, b_hi);

  // Expand back to the n×n grid: PC,q(r,c) = P'C,q(M_A(r), M_B(c)), and the
  // two expanded results partition both the rows and the columns, so their
  // union is a full colored permutation — the steady ant's input.
  std::vector<std::int32_t> union_rc(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> union_color(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < c_lo.size(); ++i) {
    const auto r = static_cast<std::size_t>(rows_lo[i]);
    union_rc[r] = cols_lo[static_cast<std::size_t>(c_lo[i])];
    union_color[r] = 0;
  }
  for (std::size_t i = 0; i < c_hi.size(); ++i) {
    const auto r = static_cast<std::size_t>(rows_hi[i]);
    union_rc[r] = cols_hi[static_cast<std::size_t>(c_hi[i])];
    union_color[r] = 1;
  }
  return steady_ant_combine_raw(union_rc, union_color);
}

}  // namespace

std::vector<std::int32_t> seaweed_multiply_reference_raw(
    const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b) {
  MONGE_CHECK(a.size() == b.size());
  return mul_rec(a, b);
}

Perm subunit_multiply_padded(const Perm& a, const Perm& b,
                             SeaweedEngine& engine) {
  SubunitPadding info;
  const auto padded = subunit_pad_pair(a, b, info);
  if (info.empty) return Perm(info.out_rows, info.out_cols);
  return subunit_unpad(info, engine.multiply(padded.first, padded.second));
}

}  // namespace monge

namespace monge::lis {

namespace {

/// The kernel as a raw row->col array (kNone = empty row). The whole
/// value-split recursion stays in this representation and every merge runs
/// on the engine's direct subunit path, so no Perm is constructed (or
/// validated) until lis_kernel_reference wraps the final result. This is
/// the pre-batching depth-first builder: one engine call per merge.
std::vector<std::int32_t> kernel_rec(const std::vector<std::int32_t>& p,
                                     SeaweedEngine& engine) {
  const auto n = static_cast<std::int64_t>(p.size());
  if (n == 0) return {};
  if (n == 1) return {kNone};  // empty kernel: LIS of one element is 1

  const std::int64_t mid = n / 2;
  std::vector<std::int32_t> lo_pos, hi_pos, p_lo, p_hi;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t v = p[static_cast<std::size_t>(i)];
    if (v < mid) {
      lo_pos.push_back(static_cast<std::int32_t>(i));
      p_lo.push_back(v);
    } else {
      hi_pos.push_back(static_cast<std::int32_t>(i));
      p_hi.push_back(static_cast<std::int32_t>(v - mid));
    }
  }
  const std::vector<std::int32_t> k_lo = kernel_rec(p_lo, engine);
  const std::vector<std::int32_t> k_hi = kernel_rec(p_hi, engine);

  // Embed: A = K_lo at lo positions + identity at hi positions;
  //        B = identity at lo positions + K_hi at hi positions.
  std::vector<std::int32_t> a(static_cast<std::size_t>(n), kNone),
      b(static_cast<std::size_t>(n), kNone);
  for (std::size_t i = 0; i < k_lo.size(); ++i) {
    if (k_lo[i] != kNone) {
      a[static_cast<std::size_t>(lo_pos[i])] =
          lo_pos[static_cast<std::size_t>(k_lo[i])];
    }
  }
  for (std::int32_t pos : hi_pos) a[static_cast<std::size_t>(pos)] = pos;
  for (std::int32_t pos : lo_pos) b[static_cast<std::size_t>(pos)] = pos;
  for (std::size_t i = 0; i < k_hi.size(); ++i) {
    if (k_hi[i] != kNone) {
      b[static_cast<std::size_t>(hi_pos[i])] =
          hi_pos[static_cast<std::size_t>(k_hi[i])];
    }
  }
  std::vector<std::int32_t> out(static_cast<std::size_t>(n));
  engine.subunit_multiply_into(a, b, n, out);
  return out;
}

}  // namespace

Perm lis_kernel_reference(std::span<const std::int32_t> perm,
                          SeaweedEngine& engine) {
  check_full_permutation(perm, "lis_kernel_reference");
  const std::vector<std::int32_t> p(perm.begin(), perm.end());
  return Perm::from_rows(kernel_rec(p, engine),
                         static_cast<std::int64_t>(perm.size()));
}

std::int64_t kernel_window_lis(const Perm& kernel, std::int64_t l,
                               std::int64_t r) {
  // Empty windows (l > r, including r == -1) are legitimate and answer 0.
  if (l > r) return 0;
  MONGE_CHECK(l >= 0 && r < kernel.rows());
  std::int64_t count = 0;
  for (std::int64_t row = l; row < kernel.rows(); ++row) {
    const std::int32_t c = kernel.col_of(row);
    count += (c != kNone && c < r + 1);
  }
  return (r - l + 1) - count;
}

std::int64_t lis_length_dp(std::span<const std::int64_t> seq) {
  const auto n = static_cast<std::int64_t>(seq.size());
  std::vector<std::int64_t> best(static_cast<std::size_t>(n), 1);
  std::int64_t ans = n == 0 ? 0 : 1;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < i; ++j) {
      if (seq[static_cast<std::size_t>(j)] < seq[static_cast<std::size_t>(i)]) {
        best[static_cast<std::size_t>(i)] =
            std::max(best[static_cast<std::size_t>(i)],
                     best[static_cast<std::size_t>(j)] + 1);
      }
    }
    ans = std::max(ans, best[static_cast<std::size_t>(i)]);
  }
  return ans;
}

std::vector<std::int64_t> lis_window_batch(
    std::span<const std::int64_t> seq,
    std::span<const std::pair<std::int64_t, std::int64_t>> windows) {
  std::vector<std::int64_t> out;
  out.reserve(windows.size());
  for (const auto& [l, r] : windows) out.push_back(lis_window(seq, l, r));
  return out;
}

}  // namespace monge::lis

namespace monge::lcs {

std::int64_t lcs_dp(std::span<const std::int64_t> s,
                    std::span<const std::int64_t> t) {
  const auto ns = static_cast<std::int64_t>(s.size());
  const auto nt = static_cast<std::int64_t>(t.size());
  std::vector<std::int64_t> prev(static_cast<std::size_t>(nt) + 1, 0);
  std::vector<std::int64_t> cur(static_cast<std::size_t>(nt) + 1, 0);
  for (std::int64_t i = 1; i <= ns; ++i) {
    for (std::int64_t j = 1; j <= nt; ++j) {
      if (s[static_cast<std::size_t>(i - 1)] ==
          t[static_cast<std::size_t>(j - 1)]) {
        cur[static_cast<std::size_t>(j)] =
            prev[static_cast<std::size_t>(j - 1)] + 1;
      } else {
        cur[static_cast<std::size_t>(j)] =
            std::max(prev[static_cast<std::size_t>(j)],
                     cur[static_cast<std::size_t>(j - 1)]);
      }
    }
    std::swap(prev, cur);
  }
  return prev[static_cast<std::size_t>(nt)];
}

}  // namespace monge::lcs
