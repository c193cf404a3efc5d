#include "lis/kernel.h"

#include <algorithm>

#include "monge/engine.h"
#include "util/check.h"
#include "util/fenwick.h"

namespace monge::lis {

namespace {

// ---------------------------------------------------------------------------
// Level-order builder. The value-split tree of every input is a STATIC
// structure (node sizes split floor/ceil independently of the data), so it
// is materialized once as bare topology — parent/children/depth per value
// interval, leaves = the full leaf partition — and each element carries one
// cursor to the node whose kernel currently represents it. The merges then
// run bottom-up by depth: one O(n) sweep over the elements in original
// position order recovers every merging node's lo/hi position ranks (the
// sweep order IS the node-local order), the level's (A, B) embedding pairs
// are built from the child kernels, and the whole level issues ONE
// SeaweedEngine::subunit_multiply_batch_into call — sharing a single arena
// sizing and striping across the engine's pool. Auxiliary memory stays
// O(n) (topology + cursors + one level's embeddings); the merge arrays are
// exactly those of the depth-first recursion (lis_kernel_reference in
// tests/oracles) and the engine batch is bit-identical to per-call
// subunit_multiply_into, so the kernels match the reference bit for bit.
// ---------------------------------------------------------------------------

/// One node of the value-split forest: topology plus the bottom-up kernel.
/// `kernel` is in node-local coordinates (position ranks within the node);
/// it is filled when the node merges (or at leaf creation) and released
/// once the parent consumed it.
struct SplitNode {
  std::int32_t parent = -1;
  std::int32_t lo = -1, hi = -1;  // children; -1 on leaves (size 1)
  std::int32_t depth = 0;
  std::vector<std::int32_t> kernel;
};

/// One merge of the current level: the parent node and its children's
/// node-local position ranks (lo_pos/hi_pos), recovered by the element
/// sweep.
struct LevelMerge {
  std::int32_t node;
  std::vector<std::int32_t> lo_pos, hi_pos;
};

/// Kernels (raw row->col arrays) of all inputs, one batched engine call per
/// merge level of the forest.
std::vector<std::vector<std::int32_t>> kernel_forest(
    std::span<const std::vector<std::int32_t>> perms, SeaweedEngine& engine) {
  std::vector<SplitNode> nodes;
  std::vector<std::int32_t> roots(perms.size(), -1);
  // elem_node[t][g]: the node whose kernel currently represents element g
  // (original position order); starts at g's leaf, hoisted to the parent as
  // merges consume it.
  std::vector<std::vector<std::int32_t>> elem_node(perms.size());
  std::int32_t max_depth = 0;

  // Build the static topology per input: split the value interval
  // [vlo, vhi) at vlo + size/2 (the recursion's mid) until single values; a
  // size-1 leaf's kernel is the empty point set ({kNone}).
  for (std::size_t t = 0; t < perms.size(); ++t) {
    const auto n = static_cast<std::int64_t>(perms[t].size());
    if (n == 0) continue;  // empty input: empty kernel, no nodes
    std::vector<std::int32_t> leaf_of_value(static_cast<std::size_t>(n));
    struct Range {
      std::int64_t vlo, vhi;
      std::int32_t parent;
      bool is_lo;
    };
    std::vector<Range> stack{{0, n, -1, false}};
    while (!stack.empty()) {
      const Range r = stack.back();
      stack.pop_back();
      const auto id = static_cast<std::int32_t>(nodes.size());
      SplitNode node;
      node.parent = r.parent;
      node.depth =
          r.parent < 0
              ? 0
              : nodes[static_cast<std::size_t>(r.parent)].depth + 1;
      max_depth = std::max(max_depth, node.depth);
      if (r.parent >= 0) {
        (r.is_lo ? nodes[static_cast<std::size_t>(r.parent)].lo
                 : nodes[static_cast<std::size_t>(r.parent)].hi) = id;
      } else {
        roots[t] = id;
      }
      if (r.vhi - r.vlo == 1) {
        node.kernel.assign(1, kNone);
        leaf_of_value[static_cast<std::size_t>(r.vlo)] = id;
      } else {
        const std::int64_t vmid = r.vlo + (r.vhi - r.vlo) / 2;
        // Push hi first so the lo child gets the smaller node id (matches
        // the depth-first recursion order; ids are otherwise arbitrary).
        stack.push_back({vmid, r.vhi, id, false});
        stack.push_back({r.vlo, vmid, id, true});
      }
      nodes.push_back(std::move(node));
    }
    elem_node[t].reserve(static_cast<std::size_t>(n));
    for (const std::int32_t v : perms[t]) {
      elem_node[t].push_back(leaf_of_value[static_cast<std::size_t>(v)]);
    }
  }

  // Bottom-up: children live one level below their parent, so sweeping the
  // depths deepest-first has every merge's inputs ready. merge_of[] is a
  // per-node slot reused across levels; only touched entries are reset.
  std::vector<std::int32_t> merge_of(nodes.size(), -1);
  for (std::int32_t d = max_depth - 1; d >= 0; --d) {
    // Element sweep in original position order: an element participates in
    // this level iff its current node's parent sits at depth d. Visit
    // order within a node is its node-local position order, so the
    // running lo/hi counts are exactly the recursion's lo/hi position ranks.
    std::vector<LevelMerge> merges;
    for (std::size_t t = 0; t < perms.size(); ++t) {
      for (std::int32_t& nd : elem_node[t]) {
        const std::int32_t pd = nodes[static_cast<std::size_t>(nd)].parent;
        if (pd < 0 || nodes[static_cast<std::size_t>(pd)].depth != d) continue;
        std::int32_t mi = merge_of[static_cast<std::size_t>(pd)];
        if (mi < 0) {
          mi = static_cast<std::int32_t>(merges.size());
          merge_of[static_cast<std::size_t>(pd)] = mi;
          merges.push_back({pd, {}, {}});
        }
        LevelMerge& mg = merges[static_cast<std::size_t>(mi)];
        const auto i = static_cast<std::int32_t>(mg.lo_pos.size() +
                                                 mg.hi_pos.size());
        (nd == nodes[static_cast<std::size_t>(pd)].lo ? mg.lo_pos : mg.hi_pos)
            .push_back(i);
        nd = pd;  // hoist the cursor; membership is recorded
      }
    }
    if (merges.empty()) continue;

    // Embed: A = K_lo at lo positions + identity at hi positions;
    //        B = identity at lo positions + K_hi at hi positions —
    // the same arrays the recursion builds per merge.
    std::vector<std::vector<std::int32_t>> ab;  // a, b interleaved per merge
    ab.reserve(2 * merges.size());
    for (const LevelMerge& mg : merges) {
      merge_of[static_cast<std::size_t>(mg.node)] = -1;
      const SplitNode& node = nodes[static_cast<std::size_t>(mg.node)];
      const std::size_t n = mg.lo_pos.size() + mg.hi_pos.size();
      std::vector<std::int32_t> a(n, kNone), b(n, kNone);
      const auto& k_lo = nodes[static_cast<std::size_t>(node.lo)].kernel;
      const auto& k_hi = nodes[static_cast<std::size_t>(node.hi)].kernel;
      for (std::size_t i = 0; i < k_lo.size(); ++i) {
        if (k_lo[i] != kNone) {
          a[static_cast<std::size_t>(mg.lo_pos[i])] =
              mg.lo_pos[static_cast<std::size_t>(k_lo[i])];
        }
      }
      for (std::int32_t pos : mg.hi_pos) a[static_cast<std::size_t>(pos)] = pos;
      for (std::int32_t pos : mg.lo_pos) b[static_cast<std::size_t>(pos)] = pos;
      for (std::size_t i = 0; i < k_hi.size(); ++i) {
        if (k_hi[i] != kNone) {
          b[static_cast<std::size_t>(mg.hi_pos[i])] =
              mg.hi_pos[static_cast<std::size_t>(k_hi[i])];
        }
      }
      ab.push_back(std::move(a));
      ab.push_back(std::move(b));
    }

    std::vector<SubunitPairView> views;
    std::vector<std::span<std::int32_t>> outs;
    views.reserve(merges.size());
    outs.reserve(merges.size());
    for (std::size_t i = 0; i < merges.size(); ++i) {
      SplitNode& node = nodes[static_cast<std::size_t>(merges[i].node)];
      const auto n = static_cast<std::int64_t>(ab[2 * i].size());
      views.push_back({ab[2 * i], ab[2 * i + 1], n});
      node.kernel.resize(static_cast<std::size_t>(n));
      outs.push_back(node.kernel);
    }
    engine.subunit_multiply_batch_into(views, outs);
    for (const LevelMerge& mg : merges) {
      const SplitNode& node = nodes[static_cast<std::size_t>(mg.node)];
      nodes[static_cast<std::size_t>(node.lo)].kernel = {};
      nodes[static_cast<std::size_t>(node.hi)].kernel = {};
    }
  }

  std::vector<std::vector<std::int32_t>> out(perms.size());
  for (std::size_t t = 0; t < perms.size(); ++t) {
    if (roots[t] >= 0) {
      out[t] = std::move(nodes[static_cast<std::size_t>(roots[t])].kernel);
    }
  }
  return out;
}

}  // namespace

Perm lis_kernel(std::span<const std::int32_t> perm, SeaweedEngine& engine) {
  check_full_permutation(perm, "lis_kernel");
  const std::vector<std::int32_t> p(perm.begin(), perm.end());
  auto kernels = kernel_forest({&p, 1}, engine);
  return Perm::from_rows(std::move(kernels[0]),
                         static_cast<std::int64_t>(perm.size()));
}

std::vector<Perm> lis_kernel_batch(
    std::span<const std::vector<std::int32_t>> perms, SeaweedEngine& engine) {
  for (const auto& p : perms) check_full_permutation(p, "lis_kernel_batch");
  auto kernels = kernel_forest(perms, engine);
  std::vector<Perm> out;
  out.reserve(perms.size());
  for (std::size_t t = 0; t < perms.size(); ++t) {
    out.push_back(Perm::from_rows(std::move(kernels[t]),
                                  static_cast<std::int64_t>(perms[t].size())));
  }
  return out;
}

std::int64_t lis_from_kernel(const Perm& kernel) {
  return kernel.rows() - kernel.point_count();
}

std::vector<std::int64_t> kernel_window_lis_batch(
    const Perm& kernel,
    std::span<const std::pair<std::int64_t, std::int64_t>> windows) {
  // KΣ(l, r+1) counts points with row >= l and col <= r. Sweep rows from
  // high to low, inserting points into a Fenwick over columns; answer each
  // query when the sweep passes its l. Degenerate l > r windows are never
  // enqueued and keep their initial 0.
  const std::int64_t n = kernel.rows();
  std::vector<std::vector<std::size_t>> by_l(static_cast<std::size_t>(n) + 1);
  for (std::size_t qi = 0; qi < windows.size(); ++qi) {
    if (windows[qi].first > windows[qi].second) continue;  // empty: stays 0
    MONGE_CHECK(windows[qi].first >= 0 && windows[qi].second < n);
    by_l[static_cast<std::size_t>(windows[qi].first)].push_back(qi);
  }
  std::vector<std::int64_t> out(windows.size(), 0);
  Fenwick cols(n);
  for (std::int64_t row = n - 1; row >= 0; --row) {
    const std::int32_t c = kernel.col_of(row);
    if (c != kNone) cols.add(c, 1);
    for (std::size_t qi : by_l[static_cast<std::size_t>(row)]) {
      const auto [l, r] = windows[qi];
      out[qi] = (r - l + 1) - cols.prefix(r + 1);
    }
  }
  return out;
}

}  // namespace monge::lis
