#include "oracles/distribution.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace monge {

DistMatrix::DistMatrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>((rows + 1) * (cols + 1)), 0) {
  MONGE_CHECK(rows >= 0 && cols >= 0);
}

DistMatrix DistMatrix::from(const Perm& p) {
  DistMatrix m(p.rows(), p.cols());
  // PΣ(i,j) counts points with row >= i and col < j. Fill by downward
  // row recurrence: PΣ(i,j) = PΣ(i+1,j) + #{points in row i with col < j}.
  for (std::int64_t i = p.rows() - 1; i >= 0; --i) {
    const std::int32_t c = p.col_of(i);
    for (std::int64_t j = 0; j <= p.cols(); ++j) {
      m.at(i, j) = m.at(i + 1, j) + (c != kNone && c < j ? 1 : 0);
    }
  }
  return m;
}

DistMatrix DistMatrix::minplus(const DistMatrix& other) const {
  MONGE_CHECK_MSG(cols_ == other.rows_, "inner dimensions disagree: "
                                            << cols_ << " vs " << other.rows_);
  DistMatrix out(rows_, other.cols_);
  for (std::int64_t i = 0; i <= rows_; ++i) {
    for (std::int64_t k = 0; k <= other.cols_; ++k) {
      std::int64_t best = std::numeric_limits<std::int64_t>::max();
      for (std::int64_t j = 0; j <= cols_; ++j) {
        best = std::min(best, at(i, j) + other.at(j, k));
      }
      out.at(i, k) = best;
    }
  }
  return out;
}

Perm DistMatrix::to_perm() const {
  Perm p(rows_, cols_);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t c = 0; c < cols_; ++c) {
      const std::int64_t v =
          at(r, c + 1) - at(r + 1, c + 1) - at(r, c) + at(r + 1, c);
      MONGE_CHECK_MSG(v == 0 || v == 1,
                      "not a distribution matrix at (" << r << "," << c << ")");
      if (v == 1) {
        MONGE_CHECK_MSG(p.row_empty(r), "two points in row " << r);
        p.set(r, c);
      }
    }
  }
  return p;
}

bool DistMatrix::is_monge() const {
  for (std::int64_t i = 0; i < rows_; ++i) {
    for (std::int64_t j = 0; j < cols_; ++j) {
      if (at(i, j) + at(i + 1, j + 1) > at(i, j + 1) + at(i + 1, j)) {
        return false;
      }
    }
  }
  return true;
}

std::int64_t dist_at(const Perm& p, std::int64_t i, std::int64_t j) {
  MONGE_CHECK(i >= 0 && i <= p.rows() && j >= 0 && j <= p.cols());
  std::int64_t count = 0;
  for (std::int64_t r = i; r < p.rows(); ++r) {
    const std::int32_t c = p.col_of(r);
    count += (c != kNone && c < j);
  }
  return count;
}

Perm multiply_naive(const Perm& a, const Perm& b) {
  const DistMatrix pa = DistMatrix::from(a);
  const DistMatrix pb = DistMatrix::from(b);
  return pa.minplus(pb).to_perm();
}

}  // namespace monge
