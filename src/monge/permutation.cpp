#include "monge/permutation.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace monge {

Perm::Perm(std::int64_t rows, std::int64_t cols)
    : row_to_col_(static_cast<std::size_t>(rows), kNone), cols_(cols) {
  MONGE_CHECK(rows >= 0 && cols >= 0);
}

Perm Perm::identity(std::int64_t n) {
  Perm p(n, n);
  for (std::int64_t r = 0; r < n; ++r) {
    p.row_to_col_[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(r);
  }
  return p;
}

Perm Perm::reverse(std::int64_t n) {
  Perm p(n, n);
  for (std::int64_t r = 0; r < n; ++r) {
    p.row_to_col_[static_cast<std::size_t>(r)] =
        static_cast<std::int32_t>(n - 1 - r);
  }
  return p;
}

Perm Perm::from_rows(std::vector<std::int32_t> row_to_col, std::int64_t cols) {
  Perm p;
  p.row_to_col_ = std::move(row_to_col);
  p.cols_ = cols;
  std::vector<bool> seen(static_cast<std::size_t>(cols), false);
  for (std::int32_t c : p.row_to_col_) {
    if (c == kNone) continue;
    MONGE_CHECK_MSG(c >= 0 && c < cols, "column " << c << " out of range");
    MONGE_CHECK_MSG(!seen[static_cast<std::size_t>(c)],
                    "duplicate column " << c);
    seen[static_cast<std::size_t>(c)] = true;
  }
  return p;
}

Perm Perm::from_points(std::int64_t rows, std::int64_t cols,
                       std::span<const Point> pts) {
  Perm p(rows, cols);
  for (const Point& pt : pts) {
    MONGE_CHECK(pt.row >= 0 && pt.row < rows && pt.col >= 0 && pt.col < cols);
    MONGE_CHECK_MSG(p.row_empty(pt.row), "duplicate row " << pt.row);
    p.set(pt.row, pt.col);
  }
  // Validate column uniqueness.
  std::vector<bool> seen(static_cast<std::size_t>(cols), false);
  for (std::int32_t c : p.row_to_col_) {
    if (c == kNone) continue;
    MONGE_CHECK_MSG(!seen[static_cast<std::size_t>(c)],
                    "duplicate column " << c);
    seen[static_cast<std::size_t>(c)] = true;
  }
  return p;
}

Perm Perm::random(std::int64_t n, Rng& rng) {
  Perm p;
  p.row_to_col_ = rng.permutation(n);
  p.cols_ = n;
  return p;
}

Perm Perm::random_sub(std::int64_t rows, std::int64_t cols, std::int64_t k,
                      Rng& rng) {
  MONGE_CHECK(k <= rows && k <= cols);
  std::vector<std::int32_t> rs(static_cast<std::size_t>(rows));
  std::iota(rs.begin(), rs.end(), 0);
  rng.shuffle(rs);
  std::vector<std::int32_t> cs(static_cast<std::size_t>(cols));
  std::iota(cs.begin(), cs.end(), 0);
  rng.shuffle(cs);
  Perm p(rows, cols);
  for (std::int64_t i = 0; i < k; ++i) {
    p.set(rs[static_cast<std::size_t>(i)], cs[static_cast<std::size_t>(i)]);
  }
  return p;
}

void Perm::set(std::int64_t r, std::int64_t c) {
  MONGE_DCHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
  row_to_col_[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(c);
}

void Perm::clear_row(std::int64_t r) {
  row_to_col_[static_cast<std::size_t>(r)] = kNone;
}

std::int64_t Perm::point_count() const {
  std::int64_t k = 0;
  for (std::int32_t c : row_to_col_) k += (c != kNone);
  return k;
}

std::int64_t Perm::core_size() const {
  std::int64_t core = 0;
  for (std::int64_t r = 0; r < rows(); ++r) {
    core += row_to_col_[static_cast<std::size_t>(r)] != r;
  }
  return core;
}

double Perm::core_density() const {
  return rows() == 0 ? 0.0
                     : static_cast<double>(core_size()) /
                           static_cast<double>(rows());
}

bool Perm::is_full_permutation() const {
  if (rows() != cols()) return false;
  std::vector<bool> seen(static_cast<std::size_t>(cols_), false);
  for (std::int32_t c : row_to_col_) {
    if (c == kNone || seen[static_cast<std::size_t>(c)]) return false;
    seen[static_cast<std::size_t>(c)] = true;
  }
  return true;
}

void check_full_permutation(std::span<const std::int32_t> p, const char* who) {
  const auto n = static_cast<std::int64_t>(p.size());
  std::vector<bool> seen(p.size(), false);
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int32_t c = p[static_cast<std::size_t>(r)];
    MONGE_CHECK_MSG(c >= 0 && c < n && !seen[static_cast<std::size_t>(c)],
                    who << ": not a permutation of [0, n) (row " << r
                        << " -> col " << c << ")");
    seen[static_cast<std::size_t>(c)] = true;
  }
}

std::vector<Point> Perm::points() const {
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(point_count()));
  for (std::int64_t r = 0; r < rows(); ++r) {
    if (!row_empty(r)) pts.push_back(Point{r, col_of(r)});
  }
  return pts;
}

Perm Perm::transposed() const {
  Perm t(cols_, rows());
  for (std::int64_t r = 0; r < rows(); ++r) {
    if (!row_empty(r)) t.set(col_of(r), r);
  }
  return t;
}

std::vector<std::int32_t> Perm::col_to_row() const {
  std::vector<std::int32_t> inv(static_cast<std::size_t>(cols_), kNone);
  for (std::int64_t r = 0; r < rows(); ++r) {
    if (!row_empty(r)) {
      inv[static_cast<std::size_t>(col_of(r))] = static_cast<std::int32_t>(r);
    }
  }
  return inv;
}

}  // namespace monge
