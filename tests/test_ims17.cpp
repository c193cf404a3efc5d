#include "oracles/ims17.h"

#include <gtest/gtest.h>

#include "lis/sequential.h"
#include "util/rng.h"

namespace monge::baselines {
namespace {

mpc::MpcConfig cfg_of(std::int64_t machines, std::int64_t space = 1 << 22,
                      bool strict = false) {
  mpc::MpcConfig cfg;
  cfg.num_machines = machines;
  cfg.space_words = space;
  cfg.strict = strict;
  cfg.threads = 2;
  return cfg;
}

/// Near-sorted input: LIS = Θ(n), the regime where the (1+ε) guarantee of
/// the net-discretised DP is meaningful.
std::vector<std::int64_t> near_sorted(std::int64_t n, double noise, Rng& rng) {
  std::vector<std::int64_t> seq(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    seq[static_cast<std::size_t>(i)] = 4 * i;
  }
  const auto swaps = static_cast<std::int64_t>(noise * static_cast<double>(n));
  for (std::int64_t s = 0; s < swaps; ++s) {
    const std::int64_t i = rng.next_in(0, n - 1), j = rng.next_in(0, n - 1);
    std::swap(seq[static_cast<std::size_t>(i)], seq[static_cast<std::size_t>(j)]);
  }
  return seq;
}

TEST(Ims17, NeverOverestimates) {
  Rng rng(3);
  mpc::Cluster cluster(cfg_of(8));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::int64_t> seq(500);
    for (auto& x : seq) x = rng.next_in(0, 1000);
    const auto res = ims17_lis(cluster, seq, {});
    ASSERT_LE(res.lis_estimate, lis::lis_length(seq));
  }
}

TEST(Ims17, OnePlusEpsOnLongLisInputs) {
  Rng rng(7);
  mpc::Cluster cluster(cfg_of(8));
  for (double eps : {0.5, 0.2, 0.1}) {
    const auto seq = near_sorted(2000, 0.1, rng);
    const std::int64_t exact = lis::lis_length(seq);
    Ims17Options opt;
    opt.eps = eps;
    const auto res = ims17_lis(cluster, seq, opt);
    ASSERT_LE(res.lis_estimate, exact);
    EXPECT_GE(static_cast<double>(res.lis_estimate) * (1.0 + eps),
              static_cast<double>(exact))
        << "eps=" << eps << " exact=" << exact
        << " estimate=" << res.lis_estimate;
  }
}

TEST(Ims17, ExactWithFullValueNet) {
  // With a net containing every distinct value there is no discretisation
  // and the estimate is exact.
  mpc::Cluster cluster(cfg_of(4));
  std::vector<std::int64_t> sorted(256), rev(256);
  for (int i = 0; i < 256; ++i) {
    sorted[static_cast<std::size_t>(i)] = i;
    rev[static_cast<std::size_t>(i)] = 256 - i;
  }
  Ims17Options exact;
  exact.net_size = 256;
  EXPECT_EQ(ims17_lis(cluster, sorted, exact).lis_estimate, 256);
  EXPECT_EQ(ims17_lis(cluster, rev, exact).lis_estimate, 1);
  // The default coarse net still cannot overestimate.
  EXPECT_LE(ims17_lis(cluster, sorted, {}).lis_estimate, 256);
  EXPECT_GE(ims17_lis(cluster, sorted, {}).lis_estimate, 200);
}

TEST(Ims17, FullyScalableUsesMoreRoundsThanGather) {
  Rng rng(5);
  const auto seq = near_sorted(1024, 0.2, rng);
  mpc::Cluster c1(cfg_of(16)), c2(cfg_of(16));
  Ims17Options tree;
  tree.fully_scalable = true;
  Ims17Options gather;
  gather.fully_scalable = false;
  const auto r_tree = ims17_lis(c1, seq, tree);
  const auto r_gather = ims17_lis(c2, seq, gather);
  EXPECT_EQ(r_tree.lis_estimate, r_gather.lis_estimate);
  EXPECT_GT(r_tree.rounds, r_gather.rounds);
}

TEST(Ims17, GatherVariantHitsSpaceWallOnStrictCluster) {
  // Table 1's scalability restriction, measured: the O(1)-round variant
  // needs m·K² words on one machine and must die on a strict cluster with
  // a small space budget, while the fully-scalable variant survives.
  Rng rng(9);
  const auto seq = near_sorted(4096, 0.2, rng);
  Ims17Options gather;
  gather.fully_scalable = false;
  gather.net_size = 24;
  {
    mpc::Cluster cluster(cfg_of(64, /*space=*/3000, /*strict=*/true));
    EXPECT_THROW(ims17_lis(cluster, seq, gather), mpc::SpaceLimitError);
  }
  Ims17Options tree = gather;
  tree.fully_scalable = true;
  {
    mpc::Cluster cluster(cfg_of(64, /*space=*/3000, /*strict=*/true));
    EXPECT_NO_THROW(ims17_lis(cluster, seq, tree));
  }
}

TEST(Ims17, TighterEpsImprovesEstimate) {
  Rng rng(13);
  const auto seq = near_sorted(2048, 0.3, rng);
  mpc::Cluster cluster(cfg_of(8));
  Ims17Options loose, tight;
  loose.eps = 0.5;
  tight.eps = 0.05;
  const auto r_loose = ims17_lis(cluster, seq, loose);
  const auto r_tight = ims17_lis(cluster, seq, tight);
  EXPECT_LE(r_loose.lis_estimate, r_tight.lis_estimate);
  EXPECT_GT(r_tight.net_size, r_loose.net_size);
}

}  // namespace
}  // namespace monge::baselines
