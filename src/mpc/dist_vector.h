// Block-distributed typed arrays living on the simulated cluster.
//
// A DistVector<T> of logical size n is split over the m machines in the
// canonical block layout: machine i owns global indices
// [ i*n/m, (i+1)*n/m )  (floor division). Collectives may transiently leave
// shards unbalanced (e.g. mid-sort); `is_balanced()` tells whether the
// canonical layout currently holds.
//
// Shard contents are registered with the cluster's resident-space auditor
// (one bulk call per round adds every shard's words), so the per-round
// space checks see them — and with the cluster's checkpoint/restore
// protocol (ResidentHooks), so crash recovery can roll a shard back to the
// round-entry snapshot: checkpoint serializes a shard through the
// util/codec.h word codec into the snapshot's reused blob, restore
// reinstates it bit-exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mpc/cluster.h"
#include "util/check.h"

namespace monge::mpc {

/// Host-side array with one entry per machine; the simulation convention is
/// that machine i only reads/writes index i inside a round.
template <typename T>
using PerMachine = std::vector<T>;

/// Canonical block layout of `total` items over `machines` machines.
struct BlockLayout {
  std::int64_t total = 0;
  std::int64_t machines = 1;

  std::int64_t lo(std::int64_t machine) const {
    return machine * total / machines;
  }
  std::int64_t hi(std::int64_t machine) const {
    return (machine + 1) * total / machines;
  }
  std::int64_t size(std::int64_t machine) const {
    return hi(machine) - lo(machine);
  }
  /// Owner of global index idx: the unique i with lo(i) <= idx < hi(i).
  std::int64_t owner(std::int64_t idx) const {
    MONGE_DCHECK(idx >= 0 && idx < total);
    std::int64_t i = ((idx + 1) * machines - 1) / total;
    // Floor-division rounding can land one off; correct locally.
    while (i > 0 && lo(i) > idx) --i;
    while (i + 1 < machines && hi(i) <= idx) ++i;
    return i;
  }
};

template <typename T>
class DistVector {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  DistVector(Cluster& cluster, std::int64_t n)
      : cluster_(&cluster),
        layout_{n, cluster.machines()},
        shards_(std::make_shared<std::vector<std::vector<T>>>(
            static_cast<std::size_t>(cluster.machines()))) {
    for (std::int64_t i = 0; i < cluster.machines(); ++i) {
      (*shards_)[static_cast<std::size_t>(i)].resize(
          static_cast<std::size_t>(layout_.size(i)));
    }
    register_auditor();
  }

  /// Loads host data as the initial (already distributed) input; this
  /// models the model's assumption that "in the beginning, the input data
  /// is distributed across the machines" and costs no rounds.
  static DistVector from_host(Cluster& cluster, std::span<const T> data) {
    DistVector dv(cluster, static_cast<std::int64_t>(data.size()));
    for (std::int64_t i = 0; i < cluster.machines(); ++i) {
      auto& loc = dv.local(i);
      const std::int64_t lo = dv.layout_.lo(i);
      for (std::int64_t k = 0; k < dv.layout_.size(i); ++k) {
        loc[static_cast<std::size_t>(k)] = data[static_cast<std::size_t>(lo + k)];
      }
    }
    return dv;
  }

  /// Reads the final output back to the host (no rounds; output reading).
  /// Requires the canonical layout.
  std::vector<T> to_host() const {
    MONGE_CHECK_MSG(is_balanced(), "to_host requires canonical layout");
    std::vector<T> out(static_cast<std::size_t>(layout_.total));
    for (std::int64_t i = 0; i < layout_.machines; ++i) {
      const auto& loc = (*shards_)[static_cast<std::size_t>(i)];
      std::copy(loc.begin(), loc.end(),
                out.begin() + static_cast<std::ptrdiff_t>(layout_.lo(i)));
    }
    return out;
  }

  ~DistVector() {
    if (auditor_id_ >= 0) cluster_->unregister_resident(auditor_id_);
  }

  DistVector(DistVector&& other) noexcept
      : cluster_(other.cluster_),
        layout_(other.layout_),
        shards_(std::move(other.shards_)) {
    if (other.auditor_id_ >= 0) {
      cluster_->unregister_resident(other.auditor_id_);
      other.auditor_id_ = -1;
    }
    register_auditor();
  }
  DistVector& operator=(DistVector&& other) noexcept {
    if (this != &other) {
      if (auditor_id_ >= 0) cluster_->unregister_resident(auditor_id_);
      if (other.auditor_id_ >= 0) {
        cluster_->unregister_resident(other.auditor_id_);
        other.auditor_id_ = -1;
      }
      cluster_ = other.cluster_;
      layout_ = other.layout_;
      shards_ = std::move(other.shards_);
      register_auditor();
    }
    return *this;
  }
  DistVector(const DistVector&) = delete;
  DistVector& operator=(const DistVector&) = delete;

  Cluster& cluster() const { return *cluster_; }
  std::int64_t size() const { return layout_.total; }
  const BlockLayout& layout() const { return layout_; }

  std::vector<T>& local(std::int64_t machine) {
    return (*shards_)[static_cast<std::size_t>(machine)];
  }
  const std::vector<T>& local(std::int64_t machine) const {
    return (*shards_)[static_cast<std::size_t>(machine)];
  }

  bool is_balanced() const {
    for (std::int64_t i = 0; i < layout_.machines; ++i) {
      if (static_cast<std::int64_t>(
              (*shards_)[static_cast<std::size_t>(i)].size()) !=
          layout_.size(i)) {
        return false;
      }
    }
    return true;
  }

 private:
  void register_auditor() {
    constexpr std::int64_t words_per =
        static_cast<std::int64_t>((sizeof(T) + 7) / 8);
    auto shards = shards_;  // keep alive inside the hooks
    ResidentHooks hooks;
    hooks.words = [shards](std::span<std::int64_t> per_machine) {
      const auto& shard_list = *shards;
      for (std::size_t i = 0; i < per_machine.size(); ++i) {
        per_machine[i] +=
            static_cast<std::int64_t>(shard_list[i].size()) * words_per;
      }
    };
    hooks.checkpoint = [shards](std::int64_t machine,
                                std::vector<Word>& blob) {
      blob.clear();
      util::pack_words_into<T>((*shards)[static_cast<std::size_t>(machine)],
                               blob);
    };
    hooks.restore = [shards](std::int64_t machine,
                             std::span<const Word> blob) {
      auto& shard = (*shards)[static_cast<std::size_t>(machine)];
      shard.clear();
      util::unpack_words_into<T>(blob, shard);
    };
    auditor_id_ = cluster_->register_resident(std::move(hooks));
  }

  Cluster* cluster_;
  BlockLayout layout_;
  std::shared_ptr<std::vector<std::vector<T>>> shards_;
  std::int64_t auditor_id_ = -1;
};

}  // namespace monge::mpc
