// Sequential LIS algorithms: Fredman's patience sorting (the O(n log n)
// classical algorithm the paper cites) and the strict-LIS rank reduction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace monge::lis {

/// Length of the longest strictly increasing subsequence (O(n log n)).
std::int64_t lis_length(std::span<const std::int64_t> seq);

/// LIS of the window seq[l..r] inclusive (patience on the window).
std::int64_t lis_window(std::span<const std::int64_t> seq, std::int64_t l,
                        std::int64_t r);

/// Strict-LIS rank reduction: maps a sequence with possible duplicates to a
/// permutation of [0, n) ordered by (value asc, position desc), so that
/// strictly increasing subsequences correspond exactly to increasing
/// subsequences of the permutation.
std::vector<std::int32_t> rank_reduce_strict(
    std::span<const std::int64_t> seq);

}  // namespace monge::lis
