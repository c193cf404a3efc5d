// (Sub-)permutation matrices in the index representation of §2.1.
//
// A rows()×cols() matrix P is a sub-permutation matrix if every entry is 0/1
// and every row and column contains at most one 1; it is a permutation matrix
// if additionally rows() == cols() and every row/column contains exactly one.
// We store `row_to_col[r] = c` for a point in row r (at half-integer
// coordinates (r+1/2, c+1/2) in the paper's notation), or kNone for an empty
// row. This is exactly the representation Theorem 1.1 takes as input.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace monge {

inline constexpr std::int32_t kNone = -1;

struct Point {
  std::int64_t row = 0;
  std::int64_t col = 0;
  friend bool operator==(const Point&, const Point&) = default;
  friend auto operator<=>(const Point&, const Point&) = default;
};

class Perm {
 public:
  Perm() = default;
  /// All-zero rows×cols sub-permutation.
  Perm(std::int64_t rows, std::int64_t cols);

  /// n×n identity permutation.
  static Perm identity(std::int64_t n);
  /// n×n anti-diagonal permutation (row r -> col n-1-r).
  static Perm reverse(std::int64_t n);
  /// Takes ownership of a row_to_col array; validates (throws on duplicate
  /// columns or out-of-range entries).
  static Perm from_rows(std::vector<std::int32_t> row_to_col,
                        std::int64_t cols);
  static Perm from_points(std::int64_t rows, std::int64_t cols,
                          std::span<const Point> pts);
  /// Uniformly random full n×n permutation.
  static Perm random(std::int64_t n, Rng& rng);
  /// Random sub-permutation with exactly k points.
  static Perm random_sub(std::int64_t rows, std::int64_t cols, std::int64_t k,
                         Rng& rng);

  std::int64_t rows() const { return static_cast<std::int64_t>(row_to_col_.size()); }
  std::int64_t cols() const { return cols_; }

  std::int32_t col_of(std::int64_t r) const {
    return row_to_col_[static_cast<std::size_t>(r)];
  }
  bool row_empty(std::int64_t r) const { return col_of(r) == kNone; }
  void set(std::int64_t r, std::int64_t c);
  void clear_row(std::int64_t r);

  /// Number of nonzero entries (O(rows)).
  std::int64_t point_count() const;
  /// Number of rows that differ from the identity pattern: col_of(r) != r,
  /// with empty (kNone) rows counting as off-identity. For full
  /// permutations this is the core size of src/monge/core_sparse.h — the
  /// quantity SeaweedEngineOptions::core_density_cutoff dispatches on.
  /// O(rows).
  std::int64_t core_size() const;
  /// core_size() / rows(), or 0.0 for an empty matrix. The measurement
  /// operators feed tools/core_stats traces through to size the engine's
  /// density cutoff.
  double core_density() const;
  /// True iff square and every row and column has exactly one point.
  bool is_full_permutation() const;
  /// Points sorted by row.
  std::vector<Point> points() const;
  /// Matrix transpose: point (r, c) -> (c, r). For full permutations this is
  /// the inverse permutation (Lemma 2.3 computes it in one MPC round).
  Perm transposed() const;
  /// col -> row map of size cols() (kNone where the column is empty).
  std::vector<std::int32_t> col_to_row() const;

  const std::vector<std::int32_t>& row_to_col() const { return row_to_col_; }

  friend bool operator==(const Perm&, const Perm&) = default;

 private:
  std::vector<std::int32_t> row_to_col_;
  std::int64_t cols_ = 0;
};

/// Throws std::logic_error unless `p` is a full permutation of
/// [0, p.size()): every entry in range and no column repeated. The message
/// starts with `who` (the caller's name) and names the first bad row.
void check_full_permutation(std::span<const std::int32_t> p, const char* who);

}  // namespace monge
