#include "lcs/hunt_szymanski.h"

#include <map>

#include "lis/sequential.h"

namespace monge::lcs {

HsOccurrences::HsOccurrences(std::span<const std::int64_t> t) {
  for (std::size_t j = 0; j < t.size(); ++j) {
    positions_[t[j]].push_back(static_cast<std::int64_t>(j));
  }
}

std::vector<std::int64_t> HsOccurrences::match_sequence(
    std::span<const std::int64_t> s) const {
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto it = positions_.find(s[i]);
    if (it == positions_.end()) continue;
    for (auto rj = it->second.rbegin(); rj != it->second.rend(); ++rj) {
      out.push_back(*rj);  // j descending within one i
    }
  }
  return out;
}

std::int64_t HsOccurrences::match_count(
    std::span<const std::int64_t> s) const {
  std::int64_t count = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto it = positions_.find(s[i]);
    if (it != positions_.end()) {
      count += static_cast<std::int64_t>(it->second.size());
    }
  }
  return count;
}

std::vector<std::int64_t> HsOccurrences::match_row_starts(
    std::span<const std::int64_t> s) const {
  std::vector<std::int64_t> starts;
  starts.reserve(s.size() + 1);
  starts.push_back(0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto it = positions_.find(s[i]);
    const std::int64_t run =
        it == positions_.end() ? 0
                               : static_cast<std::int64_t>(it->second.size());
    starts.push_back(starts.back() + run);
  }
  return starts;
}

std::vector<std::int64_t> hs_match_sequence(std::span<const std::int64_t> s,
                                            std::span<const std::int64_t> t) {
  return HsOccurrences(t).match_sequence(s);
}

std::int64_t hs_match_count(std::span<const std::int64_t> s,
                            std::span<const std::int64_t> t) {
  return HsOccurrences(t).match_count(s);
}

std::int64_t lcs_hs(std::span<const std::int64_t> s,
                    std::span<const std::int64_t> t) {
  const auto seq = hs_match_sequence(s, t);
  return lis::lis_length(seq);
}

}  // namespace monge::lcs
