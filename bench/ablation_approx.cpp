// Ablation 2: the IMS17-style baseline's accuracy/space/rounds tradeoff in
// eps, on a long-LIS workload (where the (1+eps) guarantee binds).
#include <cstdio>

#include "bench_common.h"
#include "lis/sequential.h"
#include "oracles/ims17.h"
#include "util/table.h"

using namespace monge;

int main() {
  const std::int64_t n = 1 << 13;
  Rng rng(5);
  std::vector<std::int64_t> seq(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) seq[static_cast<std::size_t>(i)] = 4 * i;
  for (std::int64_t s = 0; s < n / 5; ++s) {
    std::swap(seq[static_cast<std::size_t>(rng.next_in(0, n - 1))],
              seq[static_cast<std::size_t>(rng.next_in(0, n - 1))]);
  }
  const std::int64_t exact = lis::lis_length(seq);

  std::printf(
      "IMS17-style (1+eps) ablation, near-sorted input, n = %lld, exact "
      "LIS = %lld.\n\n",
      static_cast<long long>(n), static_cast<long long>(exact));
  Table t({"eps", "net K", "estimate", "ratio", "rounds(tree)",
           "rounds(gather)", "table words"});
  for (double eps : {0.5, 0.2, 0.1, 0.05}) {
    baselines::Ims17Options tree;
    tree.eps = eps;
    mpc::Cluster c1(bench::scaled_cluster(n, 0.5));
    const auto rt = baselines::ims17_lis(c1, seq, tree);
    baselines::Ims17Options gather = tree;
    gather.fully_scalable = false;
    mpc::Cluster c2(bench::scaled_cluster(n, 0.5));
    const auto rg = baselines::ims17_lis(c2, seq, gather);
    t.add_row({Table::num(eps, 2), std::to_string(rt.net_size),
               std::to_string(rt.lis_estimate),
               Table::num(static_cast<double>(exact) /
                              static_cast<double>(std::max<std::int64_t>(
                                  1, rt.lis_estimate)),
                          3),
               std::to_string(rt.rounds), std::to_string(rg.rounds),
               std::to_string(rt.table_words)});
  }
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
