#include "lcs/hunt_szymanski.h"

#include <gtest/gtest.h>

#include "lcs/mpc_lcs.h"
#include "oracles/oracles.h"
#include "util/rng.h"

namespace monge::lcs {
namespace {

std::vector<std::int64_t> str(const char* s) {
  std::vector<std::int64_t> v;
  for (const char* p = s; *p; ++p) v.push_back(*p);
  return v;
}

TEST(LcsSequential, KnownValues) {
  EXPECT_EQ(lcs_dp(str("abcde"), str("ace")), 3);
  EXPECT_EQ(lcs_dp(str("abc"), str("def")), 0);
  EXPECT_EQ(lcs_dp(str(""), str("abc")), 0);
  EXPECT_EQ(lcs_dp(str("aaaa"), str("aa")), 2);
  EXPECT_EQ(lcs_hs(str("abcde"), str("ace")), 3);
  EXPECT_EQ(lcs_hs(str("aaaa"), str("aa")), 2);
}

TEST(LcsSequential, HuntSzymanskiMatchesDpRandom) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t ns = rng.next_in(0, 40), nt = rng.next_in(0, 40);
    std::vector<std::int64_t> s(static_cast<std::size_t>(ns)),
        t(static_cast<std::size_t>(nt));
    const std::int64_t sigma = rng.next_in(2, 6);
    for (auto& x : s) x = rng.next_in(0, sigma);
    for (auto& x : t) x = rng.next_in(0, sigma);
    ASSERT_EQ(lcs_hs(s, t), lcs_dp(s, t));
  }
}

TEST(LcsSequential, MatchSequenceOrdering) {
  // s = "ab", t = "aba": pairs (i asc, j desc):
  // s[0]='a' matches j=2,0 (desc); s[1]='b' matches j=1.
  const auto seq = hs_match_sequence(str("ab"), str("aba"));
  EXPECT_EQ(seq, (std::vector<std::int64_t>{2, 0, 1}));
}

TEST(LcsSequential, MatchCountAgreesWithMatchSequenceSize) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t ns = rng.next_in(0, 50), nt = rng.next_in(0, 50);
    std::vector<std::int64_t> s(static_cast<std::size_t>(ns)),
        t(static_cast<std::size_t>(nt));
    const std::int64_t sigma = rng.next_in(1, 5);
    for (auto& x : s) x = rng.next_in(0, sigma);
    for (auto& x : t) x = rng.next_in(0, sigma);
    ASSERT_EQ(hs_match_count(s, t),
              static_cast<std::int64_t>(hs_match_sequence(s, t).size()));
  }
}

TEST(LcsSequential, OccurrenceTableReusableAcrossQueries) {
  Rng rng(19);
  std::vector<std::int64_t> t(60);
  for (auto& x : t) x = rng.next_in(0, 4);
  const HsOccurrences occ(t);  // built once, queried with many patterns
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::int64_t> s(static_cast<std::size_t>(rng.next_in(0, 40)));
    for (auto& x : s) x = rng.next_in(0, 5);
    ASSERT_EQ(occ.match_sequence(s), hs_match_sequence(s, t));
    ASSERT_EQ(occ.match_count(s), hs_match_count(s, t));
  }
}

TEST(MpcLcs, MatchesDpOracle) {
  Rng rng(23);
  mpc::MpcConfig cfg;
  cfg.num_machines = 6;
  cfg.space_words = 1 << 22;
  cfg.strict = false;
  cfg.threads = 2;
  for (int trial = 0; trial < 6; ++trial) {
    mpc::Cluster cluster(cfg);
    const std::int64_t ns = rng.next_in(10, 60), nt = rng.next_in(10, 60);
    std::vector<std::int64_t> s(static_cast<std::size_t>(ns)),
        t(static_cast<std::size_t>(nt));
    for (auto& x : s) x = rng.next_in(0, 4);
    for (auto& x : t) x = rng.next_in(0, 4);
    const auto res = mpc_lcs(cluster, s, t);
    ASSERT_EQ(res.lcs, lcs_dp(s, t));
    EXPECT_GT(res.matches, 0);
  }
}

TEST(MpcLcs, DisjointAlphabetsGiveZero) {
  mpc::MpcConfig cfg;
  cfg.num_machines = 2;
  cfg.threads = 1;
  mpc::Cluster cluster(cfg);
  const auto res = mpc_lcs(cluster, str("aaa"), str("bbb"));
  EXPECT_EQ(res.lcs, 0);
  EXPECT_EQ(res.matches, 0);
}

}  // namespace
}  // namespace monge::lcs
