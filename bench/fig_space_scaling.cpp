// Figure B (fully-scalability): the peak per-machine footprint of a whole
// multiplication stays within the budget s = 24·n^{1−δ}·log n at every
// tested δ, with strict checking enabled. A non-scalable algorithm (gather
// everything on one machine) is shown to break the same budget.
#include <cstdio>

#include "bench_common.h"
#include "core/mpc_multiply.h"
#include "mpc/collectives.h"
#include "util/table.h"

using namespace monge;

int main() {
  std::printf(
      "Peak per-machine words vs (n, delta), strict space checking ON.\n"
      "PASS means the paper's algorithm finished inside s = 24 n^{1-d} lg n;\n"
      "the one-machine gather baseline violates the same budget.\n\n");
  Table t({"n", "delta", "machines", "budget s", "peak words", "paper alg",
           "gather-all"});
  for (std::int64_t n : {1 << 10, 1 << 12}) {
    for (double delta : {0.3, 0.5, 0.7}) {
      Rng rng(static_cast<std::uint64_t>(n) + static_cast<std::uint64_t>(delta * 10));
      const Perm a = Perm::random(n, rng);
      const Perm b = Perm::random(n, rng);

      auto cfg = bench::scaled_cluster(n, delta, /*strict=*/true);
      std::string ours = "PASS";
      std::int64_t peak = 0;
      std::int64_t budget = cfg.space_words;
      std::int64_t machines = cfg.num_machines;
      try {
        mpc::Cluster c(cfg);
        core::MpcMultiplyReport rep;
        (void)core::mpc_unit_monge_multiply(c, a, b, {}, &rep);
        peak = rep.max_machine_words;
      } catch (const mpc::SpaceLimitError&) {
        ours = "FAIL";
      }

      std::string gather = "PASS";
      try {
        mpc::Cluster c(cfg);
        std::vector<std::int64_t> data(static_cast<std::size_t>(2 * n), 1);
        auto dv = mpc::DistVector<std::int64_t>::from_host(c, data);
        (void)mpc::gather_to_machine(c, dv, 0);
      } catch (const mpc::SpaceLimitError&) {
        gather = "FAIL (as expected)";
      }

      t.add_row({std::to_string(n), Table::num(delta, 1),
                 std::to_string(machines), std::to_string(budget),
                 std::to_string(peak), ours, gather});
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
