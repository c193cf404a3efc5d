#include "lis/mpc_lis.h"

#include <algorithm>

#include "core/mpc_subperm.h"
#include "lis/kernel.h"
#include "lis/sequential.h"
#include "monge/engine.h"
#include "mpc/collectives.h"
#include "mpc/dist_vector.h"
#include "util/check.h"
#include "util/math.h"

namespace monge::lis {

namespace {

using mpc::Cluster;
using mpc::DistVector;
using mpc::MachineCtx;
using mpc::PerMachine;

}  // namespace

MpcLisResult mpc_lis(Cluster& cluster, std::span<const std::int64_t> seq,
                     const MpcLisOptions& options) {
  const auto n = static_cast<std::int64_t>(seq.size());
  const std::int64_t m = cluster.machines();
  MpcLisResult result;
  const std::int64_t start_rounds = cluster.rounds();
  if (n == 0) {
    result.kernel = Perm(0, 0);
    return result;
  }

  // Rank reduction (strict LIS with duplicates -> permutation). The rank
  // order is computed by one cluster sort (Lemma 2.5); the tie-break uses
  // (value asc, position desc).
  struct RankItem {
    std::int64_t value;
    std::int64_t pos;
  };
  std::vector<RankItem> items;
  items.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    items.push_back(RankItem{seq[static_cast<std::size_t>(i)], i});
  }
  auto dv_items = DistVector<RankItem>::from_host(cluster, items);
  // Single-key sorts cannot express the (value, -pos) composite for
  // arbitrary 64-bit values; sort by value on the cluster (the dominant
  // communication), then fix equal-value runs by position (local to runs).
  mpc::sample_sort(cluster, dv_items,
                   [](const RankItem& it) { return it.value; });
  const std::vector<std::int32_t> rank = rank_reduce_strict(seq);

  // Value classes: class k holds ranks [k*n/C, (k+1)*n/C). Each class's
  // elements (position, class-local value) are routed to a home machine.
  std::int64_t classes = options.leaf_classes > 0 ? options.leaf_classes : m;
  classes = next_pow2(std::min<std::int64_t>(std::max<std::int64_t>(1, classes), n));
  const auto class_of = [&](std::int32_t rk) {
    return std::min<std::int64_t>(classes - 1,
                                  static_cast<std::int64_t>(rk) * classes / n);
  };
  const auto class_lo = [&](std::int64_t k) { return k * n / classes; };

  struct ClassElem {
    std::int32_t cls;
    std::int32_t pos;
    std::int32_t rk;
  };
  PerMachine<std::vector<std::pair<std::int64_t, ClassElem>>> route_out(
      static_cast<std::size_t>(m));
  const mpc::BlockLayout pos_layout{n, m};
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t cls = class_of(rank[static_cast<std::size_t>(i)]);
    route_out[static_cast<std::size_t>(pos_layout.owner(i))].push_back(
        {cls % m,
         ClassElem{static_cast<std::int32_t>(cls),
                   static_cast<std::int32_t>(i),
                   rank[static_cast<std::size_t>(i)]}});
  }
  const auto routed = mpc::route_items<ClassElem>(cluster, route_out);

  // Leaf kernels, one run_round of machine-local work.
  struct ClassState {
    std::vector<std::int32_t> positions;  // increasing
    Perm kernel;
  };
  std::vector<ClassState> state(static_cast<std::size_t>(classes));
  cluster.run_round([&](MachineCtx& mc) {
    const std::int64_t i = mc.id();
    std::vector<std::vector<std::pair<std::int32_t, std::int32_t>>> mine(
        static_cast<std::size_t>(classes));
    for (const ClassElem& e : routed[static_cast<std::size_t>(i)]) {
      mine[static_cast<std::size_t>(e.cls)].push_back({e.pos, e.rk});
    }
    // Collect the machine's class-local permutations, then solve every leaf
    // kernel through one level-order batch: each global merge level is one
    // batched subunit engine call shared by all classes this machine owns.
    std::vector<std::int64_t> owned;
    std::vector<std::vector<std::int32_t>> local_perms;
    for (std::int64_t k = 0; k < classes; ++k) {
      if (k % m != i || mine[static_cast<std::size_t>(k)].empty()) continue;
      auto& elems = mine[static_cast<std::size_t>(k)];
      std::sort(elems.begin(), elems.end());
      auto& st = state[static_cast<std::size_t>(k)];
      st.positions.clear();  // restartable: recovery re-executes the round
      std::vector<std::int32_t> local_perm;
      for (const auto& [pos, rk] : elems) {
        st.positions.push_back(pos);
        local_perm.push_back(static_cast<std::int32_t>(rk - class_lo(k)));
      }
      // Relabel class-local values to a permutation of [0, class size).
      std::vector<std::int32_t> vals(local_perm);
      std::sort(vals.begin(), vals.end());
      for (auto& v : local_perm) {
        v = static_cast<std::int32_t>(
            std::lower_bound(vals.begin(), vals.end(), v) - vals.begin());
      }
      owned.push_back(k);
      local_perms.push_back(std::move(local_perm));
    }
    if (owned.empty()) return;
    auto kernels = lis_kernel_batch(local_perms, default_seaweed_engine());
    for (std::size_t j = 0; j < owned.size(); ++j) {
      state[static_cast<std::size_t>(owned[j])].kernel = std::move(kernels[j]);
    }
  });

  // Merge levels: one batched subunit multiply per level.
  std::int64_t width = 1;
  while (width < classes) {
    std::vector<std::pair<Perm, Perm>> batch;
    std::vector<std::size_t> lo_of;  // class index of the lo half per pair
    std::vector<std::vector<std::int32_t>> merged_positions;
    for (std::int64_t k = 0; k < classes; k += 2 * width) {
      ClassState& lo = state[static_cast<std::size_t>(k)];
      ClassState& hi = state[static_cast<std::size_t>(k + width)];
      // Degenerate merges adopt the surviving side wholesale; the position
      // list round-trips through merged_positions by move (it is
      // reinstated below), never by copy.
      if (hi.positions.empty()) {
        merged_positions.push_back(std::move(lo.positions));
        lo_of.push_back(static_cast<std::size_t>(-1));
        continue;
      }
      if (lo.positions.empty()) {
        lo.kernel = std::move(hi.kernel);
        merged_positions.push_back(std::move(hi.positions));
        lo_of.push_back(static_cast<std::size_t>(-1));
        continue;
      }
      std::vector<std::int32_t> merged(lo.positions.size() +
                                       hi.positions.size());
      std::merge(lo.positions.begin(), lo.positions.end(),
                 hi.positions.begin(), hi.positions.end(), merged.begin());
      const auto pos_rank = [&](std::int32_t pos) {
        return static_cast<std::int64_t>(
            std::lower_bound(merged.begin(), merged.end(), pos) -
            merged.begin());
      };
      const auto sz = static_cast<std::int64_t>(merged.size());
      Perm a(sz, sz), b(sz, sz);
      for (const Point& pt : lo.kernel.points()) {
        a.set(pos_rank(lo.positions[static_cast<std::size_t>(pt.row)]),
              pos_rank(lo.positions[static_cast<std::size_t>(pt.col)]));
      }
      for (std::int32_t pos : hi.positions) a.set(pos_rank(pos), pos_rank(pos));
      for (std::int32_t pos : lo.positions) b.set(pos_rank(pos), pos_rank(pos));
      for (const Point& pt : hi.kernel.points()) {
        b.set(pos_rank(hi.positions[static_cast<std::size_t>(pt.row)]),
              pos_rank(hi.positions[static_cast<std::size_t>(pt.col)]));
      }
      lo_of.push_back(static_cast<std::size_t>(k));
      batch.emplace_back(std::move(a), std::move(b));
      merged_positions.push_back(std::move(merged));
    }
    if (!batch.empty()) {
      auto products = core::mpc_subunit_multiply_batch(cluster, batch,
                                                       options.multiply);
      std::size_t at = 0;
      std::size_t mp = 0;
      for (std::int64_t k = 0; k < classes; k += 2 * width) {
        ClassState& lo = state[static_cast<std::size_t>(k)];
        if (lo_of[mp] != static_cast<std::size_t>(-1)) {
          lo.kernel = std::move(products[at++]);
        }
        lo.positions = std::move(merged_positions[mp]);
        ++mp;
      }
    } else {
      std::size_t mp = 0;
      for (std::int64_t k = 0; k < classes; k += 2 * width) {
        state[static_cast<std::size_t>(k)].positions =
            std::move(merged_positions[mp++]);
      }
    }
    width *= 2;
    ++result.merge_levels;
  }

  result.kernel = std::move(state[0].kernel);
  MONGE_CHECK(result.kernel.rows() == n);
  result.lis = lis_from_kernel(result.kernel);
  result.rounds = cluster.rounds() - start_rounds;
  return result;
}

}  // namespace monge::lis
