// Corollary 1.3.1: LCS via the Hunt–Szymanski reduction to strict LIS.
//
// List all matching pairs (i, j) with s_i == t_j in order (i asc, j desc);
// common subsequences of S and T correspond exactly to strictly increasing
// subsequences of the j-sequence. Requires Θ̃(#matches) total space — the
// paper's m = n^{1+δ} regime; for small alphabets #matches ≈ n²/σ.
//
// Representation note: when the match sequence feeds the seaweed-kernel
// route (Solver LCS on the engine/cluster paths), high-similarity S/T
// pairs yield nearly sorted match sequences and therefore near-identity
// kernel merges — the engine's density-adaptive dispatch
// (monge/core_sparse.h) picks those up automatically; nothing in this
// layer changes.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace monge::lcs {

/// Occurrence table of one text T: value -> positions j (ascending). Build
/// it once per distinct T and stream many queries S against it — the table
/// is the O(|t| log |t|) half of hs_match_sequence, so batch callers
/// (Solver::solve_batch over LcsRequests) amortize it across every request
/// sharing T instead of rebuilding it per pair.
class HsOccurrences {
 public:
  explicit HsOccurrences(std::span<const std::int64_t> t);

  /// All matching pairs' j values against the table's T, ordered by
  /// (i asc, j desc) — identical to hs_match_sequence(s, t).
  std::vector<std::int64_t> match_sequence(
      std::span<const std::int64_t> s) const;

  /// Number of matching pairs — match_sequence(s).size() without
  /// materializing the (worst-case |s|·|t|-sized) sequence: O(|s| log |t|).
  std::int64_t match_count(std::span<const std::int64_t> s) const;

  /// Offsets of each s-row's match run inside match_sequence(s): entry i is
  /// the number of matches contributed by s[0..i), so row i's matches
  /// occupy [starts[i], starts[i+1]) — size |s| + 1, last entry the total
  /// match count. Because the sequence is ordered (i asc, j desc), the
  /// matches of any s-substring s[i..j] are exactly the CONTIGUOUS window
  /// [starts[i], starts[j+1]) — the mapping query/semilocal_index.h uses to
  /// turn substring-LCS into window-LIS over the match sequence.
  std::vector<std::int64_t> match_row_starts(
      std::span<const std::int64_t> s) const;

 private:
  std::map<std::int64_t, std::vector<std::int64_t>> positions_;
};

/// All matching pairs' j values, ordered by (i asc, j desc).
std::vector<std::int64_t> hs_match_sequence(std::span<const std::int64_t> s,
                                            std::span<const std::int64_t> t);

/// Number of matching pairs (i, j) with s_i == t_j, without materializing
/// the match sequence. Always equal to hs_match_sequence(s, t).size().
std::int64_t hs_match_count(std::span<const std::int64_t> s,
                            std::span<const std::int64_t> t);

/// Sequential LCS via Hunt–Szymanski (patience on the match sequence).
std::int64_t lcs_hs(std::span<const std::int64_t> s,
                    std::span<const std::int64_t> t);

}  // namespace monge::lcs
