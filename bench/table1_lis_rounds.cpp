// Reproduces Table 1 of the paper: round complexity, scalability and
// exactness of massively-parallel LIS algorithms — with ROUNDS MEASURED in
// the simulator rather than quoted. Rows:
//   [KT10a]-profile   warmup multiply in a two-way merge tree  O(log^2 n)
//   [IMS17] tree      (1+eps)-approx, fully scalable           O(log n)
//   [IMS17] gather    (1+eps)-approx, O(1) rounds, delta<1/4   O(1)
//   [CHS23]-profile   binary split + binary search tree        O(log^3 n)
//   This paper        Theorem 1.3                              O(log n)
#include <cstdio>

#include "bench_common.h"
#include "lis/mpc_lis.h"
#include "lis/sequential.h"
#include "oracles/ims17.h"
#include "util/table.h"

using namespace monge;

namespace {

std::int64_t lis_rounds_with(mpc::Cluster& cluster,
                             const std::vector<std::int64_t>& seq,
                             std::int64_t split_h, std::int64_t fanout) {
  lis::MpcLisOptions opt;
  opt.multiply.split_h = split_h;
  opt.multiply.tree_fanout = fanout;
  const auto res = lis::mpc_lis(cluster, seq, opt);
  MONGE_CHECK(res.lis == lis::lis_length(seq));
  return res.rounds;
}

}  // namespace

int main() {
  std::printf(
      "Table 1 (reproduced, measured): rounds of massively parallel LIS\n"
      "algorithms on random inputs, delta = 0.5. Shape to check: the two\n"
      "polylog baselines grow markedly faster than this paper's O(log n);\n"
      "the IMS17 O(1) gather row stays flat but is approximate and dies\n"
      "(space) for delta >= 1/4-style regimes; this paper matches the\n"
      "fully-scalable IMS17 profile while being exact.\n\n");

  const std::vector<std::int64_t> sizes = {1 << 10, 1 << 12, 1 << 14};
  Table t({"algorithm", "scalability", "exact?", "n=2^10", "n=2^12",
           "n=2^14"});

  const auto paper_h = [](std::int64_t n) {
    return std::max<std::int64_t>(2, ipow_frac(n, 0.05));
  };

  std::vector<std::string> kt10a = {"[KT10a]-profile (warmup tree)",
                                    "delta<1/3", "exact"};
  std::vector<std::string> ims_tree = {"[IMS17] fully-scalable",
                                       "fully-scalable", "(1+eps)"};
  std::vector<std::string> ims_gather = {"[IMS17] O(1)-round", "delta<1/4",
                                         "(1+eps)"};
  std::vector<std::string> chs23 = {"[CHS23]-profile (binary tree)",
                                    "fully-scalable", "exact"};
  std::vector<std::string> ours = {"This paper (Thm 1.3)", "fully-scalable",
                                   "exact"};

  for (std::int64_t n : sizes) {
    const auto seq = bench::random_sequence(n, 42 + static_cast<std::uint64_t>(n));
    // Warmup profile: two-way splits with a flattened descent tree.
    {
      mpc::Cluster c(bench::scaled_cluster(n, 0.5));
      kt10a.push_back(
          std::to_string(lis_rounds_with(c, seq, 2, 4 * paper_h(n))));
    }
    {
      mpc::Cluster c(bench::scaled_cluster(n, 0.5));
      baselines::Ims17Options o;
      o.fully_scalable = true;
      ims_tree.push_back(std::to_string(baselines::ims17_lis(c, seq, o).rounds));
    }
    {
      mpc::Cluster c(bench::scaled_cluster(n, 0.5));
      baselines::Ims17Options o;
      o.fully_scalable = false;
      ims_gather.push_back(
          std::to_string(baselines::ims17_lis(c, seq, o).rounds));
    }
    {
      mpc::Cluster c(bench::scaled_cluster(n, 0.5));
      chs23.push_back(std::to_string(lis_rounds_with(c, seq, 2, 2)));
    }
    {
      mpc::Cluster c(bench::scaled_cluster(n, 0.5));
      ours.push_back(std::to_string(
          lis_rounds_with(c, seq, 4 * paper_h(n), 4 * paper_h(n))));
    }
  }

  t.add_row(kt10a);
  t.add_row(ims_tree);
  t.add_row(ims_gather);
  t.add_row(chs23);
  t.add_row(ours);
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "Note: the paper's asymptotic H = n^{(1-delta)/10} is ~2 at these n;\n"
      "the harness uses 4H so the flattened-tree effect is visible at\n"
      "simulation scale (see docs/ARCHITECTURE.md, \"Deviations from the\n"
      "paper\").\n");
  return 0;
}
