// Typed request/result structs for the monge::Solver facade.
//
// A request is pure data: the inputs of one of the library's deliverables
// (Theorem 1.1 full multiply, Theorem 1.2 subunit multiply, Theorem 1.3
// LIS with the semi-local kernel and windowed queries, Corollary 1.3.1
// LCS). Which algorithm actually runs — the sequential engine or the
// simulated MPC cluster — is chosen by the Solver's backend, never by the
// request; the same request can be replayed against every backend, which
// is exactly what the bit-identity tests do.
//
// Results carry the existing reports/stats unchanged: the MPC backend
// fills core::MpcMultiplyReport / round counts, the Sequential backend
// leaves them zero. See api/solver.h for the routing table.
//
// Every request struct names its result type (`using Result = ...`), and
// RequestTypes at the bottom of this file lists every request type once.
// That list drives Solver::solve/try_solve and SolverService::submit/
// try_submit and the service's per-type lanes; docs/ARCHITECTURE.md
// ("Adding a request type") names the remaining per-type sites.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/mpc_multiply.h"
#include "monge/permutation.h"
#include "query/semilocal_index.h"

namespace monge {

/// 128-bit digest of a request payload — the dedup/cache key. Collisions
/// between distinct payloads are treated as impossible (2^-64 birthday
/// regime at any plausible cache size); equal payloads always digest
/// equally, so a hit is a semantic hit.
struct RequestDigest {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const RequestDigest&, const RequestDigest&) = default;
};

struct MultiplyResult;
struct LisResult;
struct LcsResult;
struct BuildIndexResult;
struct WindowLisResult;
struct SubstringLcsResult;

/// One product PC = PA ⊡ PB.
struct MultiplyRequest {
  using Result = MultiplyResult;

  enum class Kind {
    kFull = 0,     ///< full n×n permutations (Theorem 1.1)
    kSubunit = 1,  ///< sub-permutations, shapes rA×n2 · n2×cB (Theorem 1.2)
  };

  Perm a;  ///< PA; full permutation for kFull, sub-permutation for kSubunit.
  Perm b;  ///< PB with b.rows() == a.cols().
  Kind kind = Kind::kFull;
};

struct MultiplyResult {
  Perm c;  ///< the product PA ⊡ PB.
  /// Round/space accounting of the cluster call. Filled by the MpcSim
  /// backend; all-zero for Sequential.
  core::MpcMultiplyReport report{};
};

/// LIS of a sequence (duplicates allowed; strict LIS), optionally with the
/// semi-local kernel and an offline batch of window queries.
struct LisRequest {
  using Result = LisResult;

  std::vector<std::int64_t> seq;  ///< the input sequence.
  /// Build and return the semi-local kernel (Corollary 1.3.2). Without it
  /// a length-only request routes to the cheapest length algorithm of the
  /// backend (patience sorting on Sequential).
  bool want_kernel = false;
  /// Inclusive [l, r] windows answered offline; l > r is a legitimate
  /// empty window (answers 0). Non-empty implies a kernel is built
  /// internally.
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
};

struct LisResult {
  std::int64_t lis = 0;  ///< LIS of the whole sequence.
  Perm kernel;           ///< populated iff LisRequest::want_kernel.
  /// One answer per LisRequest::windows entry, in input order.
  std::vector<std::int64_t> window_lis;
  std::int64_t rounds = 0;        ///< MPC rounds consumed (MpcSim only).
  std::int64_t merge_levels = 0;  ///< kernel merge-tree levels (MpcSim only).
};

/// LCS of two sequences via the Hunt–Szymanski reduction to strict LIS.
struct LcsRequest {
  using Result = LcsResult;

  std::vector<std::int64_t> s;
  std::vector<std::int64_t> t;
};

struct LcsResult {
  std::int64_t lcs = 0;
  /// Size of the HS match sequence (the LIS input; what the MPC cluster
  /// must be provisioned for). Filled by every backend.
  std::int64_t matches = 0;
  std::int64_t rounds = 0;  ///< MPC rounds consumed (MpcSim only).
};

/// Shared reference to an immutable query::SemiLocalIndex — what a
/// BuildIndexRequest returns and what every query request carries. The
/// handle IS the lifecycle: the index lives as long as any handle (or any
/// SolverService cache entry) references it, and queries against a handle
/// are safe from any thread because the index never mutates. The digest of
/// a query request keys on id(), which is process-unique and never reused,
/// so a cached query result can never be served against a different index.
struct QueryHandle {
  std::shared_ptr<const query::SemiLocalIndex> index;

  bool valid() const { return index != nullptr; }
  /// The index's process-unique id; 0 for an empty handle.
  std::uint64_t id() const { return index ? index->id() : 0; }

  friend bool operator==(const QueryHandle& a, const QueryHandle& b) {
    return a.index == b.index;
  }
};

/// Build a SemiLocalIndex once so arbitrarily many WindowLisQuery /
/// SubstringLcsQuery batches answer without re-running the seaweed
/// machinery. The backend chooses which kernel builder runs (all three
/// produce bit-identical kernels, so the served answers never depend on
/// the backend).
struct BuildIndexRequest {
  using Result = BuildIndexResult;

  enum class Kind {
    kWindowLis = 0,     ///< index seq for LIS(seq[l..r]) queries.
    kSubstringLcs = 1,  ///< index (s=seq, t) for LCS(seq[i..j], t) queries.
  };

  Kind kind = Kind::kWindowLis;
  std::vector<std::int64_t> seq;  ///< the sequence (s in kSubstringLcs).
  /// The fixed text t of a kSubstringLcs index; must be empty for
  /// kWindowLis.
  std::vector<std::int64_t> t;
};

struct BuildIndexResult {
  QueryHandle handle;        ///< the built (or cache-shared) index.
  std::int64_t n = 0;        ///< indexed length (match count for LCS mode).
  std::int64_t points = 0;   ///< kernel points retained by the index.
  /// The full-range answer: LIS(seq), or LCS(seq, t) in kSubstringLcs
  /// mode — the O(1) special case of the window queries.
  std::int64_t full = 0;
  std::int64_t rounds = 0;   ///< MPC rounds consumed (MpcSim only).
};

/// A batch of window-LIS queries against a kWindowLis index.
struct WindowLisQuery {
  using Result = WindowLisResult;

  QueryHandle handle;
  /// Inclusive [l, r] windows; l > r is a legitimate empty window
  /// (answers 0).
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
};

struct WindowLisResult {
  /// One LIS length per WindowLisQuery::windows entry, in input order.
  std::vector<std::int64_t> lis;
};

/// A batch of substring-LCS queries against a kSubstringLcs index.
struct SubstringLcsQuery {
  using Result = SubstringLcsResult;

  QueryHandle handle;
  /// Inclusive [i, j] substrings of s; i > j is a legitimate empty
  /// substring (answers 0).
  std::vector<std::pair<std::int64_t, std::int64_t>> substrings;
};

struct SubstringLcsResult {
  /// One LCS length per SubstringLcsQuery::substrings entry, in input
  /// order.
  std::vector<std::int64_t> lcs;
};

/// A compile-time list of request types.
template <typename... Rs>
struct RequestList {};

/// Every request type the Solver and SolverService accept, each once.
using RequestTypes = RequestList<MultiplyRequest, LisRequest, LcsRequest,
                                 BuildIndexRequest, WindowLisQuery,
                                 SubstringLcsQuery>;

namespace detail {
template <typename R, typename... Rs>
constexpr bool listed_in(RequestList<Rs...> /*list*/) {
  return (std::is_same_v<R, Rs> || ...);
}
}  // namespace detail

/// A type listed in RequestTypes — what solve/try_solve and submit/
/// try_submit accept.
template <typename R>
concept SolverRequest = detail::listed_in<R>(RequestTypes{});

/// Digest of a multiply request: kind, shapes and both row->col arrays,
/// length-prefixed so concatenation ambiguities cannot collide.
RequestDigest request_digest(const MultiplyRequest& req);
/// Digest of a LIS request: sequence, want_kernel flag and windows.
RequestDigest request_digest(const LisRequest& req);
/// Digest of an LCS request: both sequences, length-prefixed.
RequestDigest request_digest(const LcsRequest& req);
/// Digest of an index build: kind plus both sequences. Identical builds
/// digest equally, so the service dedups/caches them onto ONE shared
/// index — the handle lifecycle the query tier documents.
RequestDigest request_digest(const BuildIndexRequest& req);
/// Digest of a window-LIS query batch: the index's process-unique id()
/// (never reused, so a cached answer can never alias a different index)
/// plus the windows.
RequestDigest request_digest(const WindowLisQuery& req);
/// Digest of a substring-LCS query batch: index id() plus the substrings.
RequestDigest request_digest(const SubstringLcsQuery& req);

}  // namespace monge
