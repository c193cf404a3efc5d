#include "monge/seaweed.h"

#include "monge/engine.h"
#include "util/check.h"

namespace monge {

std::vector<std::int32_t> seaweed_multiply_raw(
    std::span<const std::int32_t> a, std::span<const std::int32_t> b) {
  MONGE_CHECK(a.size() == b.size());
  return default_seaweed_engine().multiply_raw(a, b);
}

Perm seaweed_multiply(const Perm& a, const Perm& b) {
  MONGE_CHECK_MSG(a.is_full_permutation() && b.is_full_permutation(),
                  "seaweed_multiply requires full permutations (use "
                  "subunit_multiply for sub-permutations)");
  MONGE_CHECK(a.cols() == b.rows());
  return Perm::from_rows(
      seaweed_multiply_raw(a.row_to_col(), b.row_to_col()), b.cols());
}

}  // namespace monge
