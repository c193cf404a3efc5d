#include "lis/sequential.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace monge::lis {

std::int64_t lis_length(std::span<const std::int64_t> seq) {
  std::vector<std::int64_t> tails;  // tails[k] = min tail of an IS of len k+1
  for (std::int64_t x : seq) {
    const auto it = std::lower_bound(tails.begin(), tails.end(), x);
    if (it == tails.end()) {
      tails.push_back(x);
    } else {
      *it = x;
    }
  }
  return static_cast<std::int64_t>(tails.size());
}

std::int64_t lis_window(std::span<const std::int64_t> seq, std::int64_t l,
                        std::int64_t r) {
  // Empty windows (l > r, including the r == -1 empty-sequence query) are
  // legitimate and answer 0; only non-empty windows must be in range.
  if (l > r) return 0;
  MONGE_CHECK(l >= 0 && r < static_cast<std::int64_t>(seq.size()));
  return lis_length(seq.subspan(static_cast<std::size_t>(l),
                                static_cast<std::size_t>(r - l + 1)));
}

std::vector<std::int32_t> rank_reduce_strict(
    std::span<const std::int64_t> seq) {
  const auto n = static_cast<std::int64_t>(seq.size());
  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::int32_t x, std::int32_t y) {
    if (seq[static_cast<std::size_t>(x)] != seq[static_cast<std::size_t>(y)]) {
      return seq[static_cast<std::size_t>(x)] < seq[static_cast<std::size_t>(y)];
    }
    return x > y;  // equal values: later position gets the smaller rank
  });
  std::vector<std::int32_t> rank(static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k) {
    rank[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])] =
        static_cast<std::int32_t>(k);
  }
  return rank;
}

}  // namespace monge::lis
