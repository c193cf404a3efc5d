#include "oracles/ims17.h"

#include <algorithm>
#include <limits>

#include "mpc/collectives.h"
#include "mpc/dist_vector.h"
#include "util/check.h"
#include "util/math.h"

namespace monge::baselines {

namespace {

using mpc::Cluster;
using mpc::MachineCtx;
using mpc::PerMachine;

/// T[u][v] for 0 <= u <= v <= K: LIS of `block` restricted to values in
/// (net[u], net[v]] (net[0] = -inf conceptually; net has K entries, and
/// index K means +inf). Flattened (K+1)x(K+1), row-major.
std::vector<std::int64_t> block_table(std::span<const std::int64_t> block,
                                      std::span<const std::int64_t> net) {
  const auto k = static_cast<std::int64_t>(net.size());
  std::vector<std::int64_t> table(
      static_cast<std::size_t>((k + 1) * (k + 1)), 0);
  for (std::int64_t u = 0; u <= k; ++u) {
    // Patience over elements with value strictly above net[u-1]. tails[L-1]
    // is the minimum possible maximum of an increasing subsequence of
    // length L, so an IS of length L fits (u, v] iff tails[L-1] <= net[v-1]
    // (the tail is the subsequence's largest element).
    std::vector<std::int64_t> tails;
    for (std::int64_t x : block) {
      if (u > 0 && x <= net[static_cast<std::size_t>(u - 1)]) continue;
      const auto it = std::lower_bound(tails.begin(), tails.end(), x);
      if (it == tails.end()) {
        tails.push_back(x);
      } else {
        *it = x;
      }
    }
    // Interval levels: L_0 = -inf, L_t = net[t-1]; T[u][v] covers (L_u, L_v].
    // net[k-1] is the maximum value, so L_k covers everything.
    for (std::int64_t v = std::max<std::int64_t>(u, 1); v <= k; ++v) {
      const std::int64_t bound = net[static_cast<std::size_t>(v - 1)];
      const auto it = std::upper_bound(tails.begin(), tails.end(), bound);
      table[static_cast<std::size_t>(u * (k + 1) + v)] =
          static_cast<std::int64_t>(it - tails.begin());
    }
  }
  return table;
}

/// (max,+) merge: left block strictly before right block.
std::vector<std::int64_t> merge_tables(const std::vector<std::int64_t>& a,
                                       const std::vector<std::int64_t>& b,
                                       std::int64_t k) {
  std::vector<std::int64_t> out(static_cast<std::size_t>((k + 1) * (k + 1)),
                                0);
  for (std::int64_t u = 0; u <= k; ++u) {
    for (std::int64_t v = u; v <= k; ++v) {
      std::int64_t best = 0;
      for (std::int64_t w = u; w <= v; ++w) {
        best = std::max(best,
                        a[static_cast<std::size_t>(u * (k + 1) + w)] +
                            b[static_cast<std::size_t>(w * (k + 1) + v)]);
      }
      out[static_cast<std::size_t>(u * (k + 1) + v)] = best;
    }
  }
  return out;
}

}  // namespace

Ims17Result ims17_lis(Cluster& cluster, std::span<const std::int64_t> seq,
                      const Ims17Options& options) {
  const auto n = static_cast<std::int64_t>(seq.size());
  const std::int64_t m = cluster.machines();
  Ims17Result out;
  const std::int64_t start = cluster.rounds();
  if (n == 0) return out;

  const auto levels = static_cast<std::int64_t>(
      std::max(1, ceil_log2(static_cast<std::uint64_t>(m))));
  std::int64_t k = options.net_size > 0
                       ? options.net_size
                       : static_cast<std::int64_t>(std::llround(
                             static_cast<double>(levels) / options.eps));
  k = std::clamp<std::int64_t>(k, 2, n);
  out.net_size = k;
  out.table_words = (k + 1) * (k + 1);

  // Value net = K quantiles, computed with one cluster sort (Lemma 2.5).
  auto dv = mpc::DistVector<std::int64_t>::from_host(cluster, seq);
  mpc::sample_sort(cluster, dv, [](std::int64_t x) { return x; });
  const auto sorted = dv.to_host();
  std::vector<std::int64_t> net;
  for (std::int64_t t = 1; t <= k; ++t) {
    net.push_back(sorted[static_cast<std::size_t>(
        std::min(n - 1, t * n / k))]);
  }
  net.erase(std::unique(net.begin(), net.end()), net.end());
  k = static_cast<std::int64_t>(net.size());
  out.net_size = k;
  out.table_words = (k + 1) * (k + 1);

  // Per-block tables (machine-local; blocks are the canonical layout).
  const mpc::BlockLayout layout{n, m};
  PerMachine<std::vector<std::int64_t>> tables(static_cast<std::size_t>(m));
  cluster.run_round([&](MachineCtx& mc) {
    const std::int64_t i = mc.id();
    tables[static_cast<std::size_t>(i)] = block_table(
        seq.subspan(static_cast<std::size_t>(layout.lo(i)),
                    static_cast<std::size_t>(layout.size(i))),
        net);
  });

  if (options.fully_scalable) {
    // Binary merge tree over machines; tables move as real messages.
    for (std::int64_t stride = 1; stride < m; stride *= 2) {
      cluster.run_round([&](MachineCtx& mc) {
        const std::int64_t i = mc.id();
        if ((i / stride) % 2 == 1 && i % stride == 0) {
          mc.send_items<std::int64_t>(i - stride, 0,
                                      tables[static_cast<std::size_t>(i)]);
        }
      });
      // Restartable: merge into a next buffer (overwrite), never in place,
      // so crash recovery can re-execute the round without double-merging.
      PerMachine<std::vector<std::int64_t>> next_tables(
          static_cast<std::size_t>(m));
      cluster.run_round([&](MachineCtx& mc) {
        const std::int64_t i = mc.id();
        auto merged = tables[static_cast<std::size_t>(i)];
        for (const mpc::Message& msg : mc.inbox()) {
          const auto other = msg.decode<std::int64_t>();
          merged = merge_tables(merged, other, k);
        }
        next_tables[static_cast<std::size_t>(i)] = std::move(merged);
      });
      tables.swap(next_tables);
    }
  } else {
    // O(1)-round variant: gather every table on machine 0. In strict mode
    // this throws once m·(K+1)² exceeds s — the scalability restriction.
    cluster.run_round([&](MachineCtx& mc) {
      if (mc.id() != 0) {
        mc.send_items<std::int64_t>(0, mc.id(),
                                    tables[static_cast<std::size_t>(mc.id())]);
      }
    });
    std::vector<std::int64_t> merged0;
    cluster.run_round([&](MachineCtx& mc) {
      if (mc.id() != 0) return;
      std::vector<std::pair<std::int64_t, std::vector<std::int64_t>>> got;
      for (const mpc::Message& msg : mc.inbox()) {
        got.push_back({msg.from, msg.decode<std::int64_t>()});
      }
      std::sort(got.begin(), got.end());
      // Restartable: accumulate into a fresh buffer, written by overwrite.
      auto acc = tables[0];
      for (auto& [from, tbl] : got) {
        acc = merge_tables(acc, tbl, k);
      }
      merged0 = std::move(acc);
    });
    tables[0] = std::move(merged0);
  }

  out.lis_estimate = tables[0][static_cast<std::size_t>(k)];
  out.rounds = cluster.rounds() - start;
  return out;
}

}  // namespace monge::baselines
