// Golden cost-model pins: the full ClusterStats of two fixed MPC runs.
//
// The simulator is deterministic, so rounds, communication words and the
// per-machine space peaks of a fixed input are exact numbers. These pins
// catch any change to the cost model: a bookkeeping refactor of the
// cluster must leave every field identical, and an algorithmic change that
// moves them must update the values here and explain why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/mpc_multiply.h"
#include "lis/mpc_lis.h"
#include "lis/sequential.h"
#include "monge/engine.h"
#include "mpc/cluster.h"
#include "util/rng.h"

namespace monge {
namespace {

constexpr std::int64_t kN = 512;

// Field by field, so a mismatch prints the numbers; recovery must stay
// all-zero because no fault plan is set.
void expect_stats(const mpc::ClusterStats& got, std::int64_t rounds,
                  std::int64_t comm_words, std::int64_t machine_words,
                  std::int64_t resident_words) {
  EXPECT_EQ(got.rounds, rounds);
  EXPECT_EQ(got.total_comm_words, comm_words);
  EXPECT_EQ(got.max_machine_words, machine_words);
  EXPECT_EQ(got.max_resident_words, resident_words);
  EXPECT_EQ(got.recovery, mpc::RecoveryStats{});
}

TEST(MpcGoldenCost, LisAtN512FullyScalableStrict) {
  mpc::MpcConfig cfg = mpc::MpcConfig::fully_scalable(kN, 0.5);
  ASSERT_TRUE(cfg.strict);
  cfg.threads = 2;
  mpc::Cluster cluster(cfg);
  Rng rng(512);
  std::vector<std::int64_t> seq(static_cast<std::size_t>(kN));
  for (auto& x : seq) x = rng.next_in(0, 1 << 30);

  const lis::MpcLisResult res = lis::mpc_lis(cluster, seq);
  ASSERT_EQ(res.lis, lis::lis_length(seq));
  expect_stats(cluster.stats(), /*rounds=*/18201, /*comm_words=*/4316407,
               /*machine_words=*/2034, /*resident_words=*/1080);
}

TEST(MpcGoldenCost, UnitMongeMultiplyAtN512On16Machines) {
  mpc::MpcConfig cfg;
  cfg.num_machines = 16;
  cfg.space_words = 1 << 20;
  cfg.strict = true;
  cfg.threads = 2;
  mpc::Cluster cluster(cfg);
  Rng rng(16);
  const Perm a = Perm::random(kN, rng);
  const Perm b = Perm::random(kN, rng);

  const Perm got = core::mpc_unit_monge_multiply(cluster, a, b);
  ASSERT_EQ(got, default_seaweed_engine().multiply(a, b));
  expect_stats(cluster.stats(), /*rounds=*/3033, /*comm_words=*/800018,
               /*machine_words=*/2445, /*resident_words=*/1309);
}

}  // namespace
}  // namespace monge
