#include "monge/subperm.h"

#include "monge/engine.h"
#include "util/check.h"

namespace monge {

Perm subunit_multiply(const Perm& a, const Perm& b, SeaweedEngine& engine) {
  MONGE_CHECK_MSG(a.cols() == b.rows(), "inner dimensions disagree: "
                                            << a.cols() << " vs " << b.rows());
  std::vector<std::int32_t> out(static_cast<std::size_t>(a.rows()), kNone);
  engine.subunit_multiply_into(a.row_to_col(), b.row_to_col(), b.cols(), out);
  return Perm::from_rows(std::move(out), b.cols());
}

std::pair<Perm, Perm> subunit_pad_pair(const Perm& a, const Perm& b,
                                       SubunitPadding& info) {
  MONGE_CHECK_MSG(a.cols() == b.rows(), "inner dimensions disagree: "
                                            << a.cols() << " vs " << b.rows());
  info = SubunitPadding{};  // safe to reuse one struct across pairs
  const std::int64_t n2 = a.cols();
  info.out_rows = a.rows();
  info.out_cols = b.cols();

  // Step 1: compact. rows_a = surviving original rows of PA (M_A^{-1});
  // cols_b = surviving original columns of PB, ranked in column order.
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    if (!a.row_empty(r)) info.rows_a.push_back(static_cast<std::int32_t>(r));
  }
  const std::vector<std::int32_t> b_col_to_row = b.col_to_row();
  std::vector<std::int32_t> col_rank_b(static_cast<std::size_t>(b.cols()),
                                       kNone);
  for (std::int64_t c = 0; c < b.cols(); ++c) {
    if (b_col_to_row[static_cast<std::size_t>(c)] != kNone) {
      col_rank_b[static_cast<std::size_t>(c)] =
          static_cast<std::int32_t>(info.cols_b.size());
      info.cols_b.push_back(static_cast<std::int32_t>(c));
    }
  }
  const auto n1 = static_cast<std::int64_t>(info.rows_a.size());
  info.n3 = static_cast<std::int64_t>(info.cols_b.size());
  info.shift = n2 - n1;
  if (n1 == 0 || info.n3 == 0 || n2 == 0) {
    info.empty = true;
    return {Perm(0, 0), Perm(0, 0)};
  }

  // Step 2a: P'A (n2×n2). The top n2−n1 rows cover PA's empty columns in
  // increasing order; the bottom n1 rows are the compacted PA.
  std::vector<std::uint8_t> col_used_a(static_cast<std::size_t>(n2), 0);
  for (std::int32_t r : info.rows_a) {
    col_used_a[static_cast<std::size_t>(a.col_of(r))] = 1;
  }
  std::vector<std::int32_t> pa(static_cast<std::size_t>(n2));
  {
    std::int64_t top = 0;
    for (std::int64_t c = 0; c < n2; ++c) {
      if (!col_used_a[static_cast<std::size_t>(c)]) {
        pa[static_cast<std::size_t>(top++)] = static_cast<std::int32_t>(c);
      }
    }
    MONGE_CHECK(top == n2 - n1);
    for (std::int64_t i = 0; i < n1; ++i) {
      pa[static_cast<std::size_t>(top + i)] =
          a.col_of(info.rows_a[static_cast<std::size_t>(i)]);
    }
  }

  // Step 2b: P'B (n2×n2). Surviving columns keep their rank in [0,n3); each
  // empty row of PB gets one of the appended columns [n3,n2) in increasing
  // row order.
  std::vector<std::int32_t> pb(static_cast<std::size_t>(n2));
  {
    std::int64_t appended = 0;
    for (std::int64_t r = 0; r < n2; ++r) {
      if (b.row_empty(r)) {
        pb[static_cast<std::size_t>(r)] =
            static_cast<std::int32_t>(info.n3 + appended++);
      } else {
        pb[static_cast<std::size_t>(r)] =
            col_rank_b[static_cast<std::size_t>(b.col_of(r))];
      }
    }
    MONGE_CHECK(appended == n2 - info.n3);
  }
  return {Perm::from_rows(std::move(pa), n2),
          Perm::from_rows(std::move(pb), n2)};
}

Perm subunit_unpad(const SubunitPadding& info, const Perm& padded_product) {
  Perm out(info.out_rows, info.out_cols);
  if (info.empty) return out;
  for (std::int64_t r = info.shift; r < padded_product.rows(); ++r) {
    const std::int32_t c = padded_product.col_of(r);
    if (c < info.n3) {
      out.set(info.rows_a[static_cast<std::size_t>(r - info.shift)],
              info.cols_b[static_cast<std::size_t>(c)]);
    }
  }
  return out;
}

}  // namespace monge
