// Quickstart: the three core operations of the library through the
// monge::Solver facade in ~60 lines.
//   1. sequential unit-Monge multiplication (the seaweed product),
//   2. the same product on a simulated MPC cluster (Theorem 1.1),
//   3. exact LIS in O(log n) rounds (Theorem 1.3).
// One Solver per backend: requests are pure data, so the SAME request can
// be replayed against every backend (that is how the MPC run is checked
// against the sequential one below).
#include <cstdio>

#include "api/solver.h"
#include "lis/sequential.h"
#include "util/check.h"
#include "util/rng.h"

using namespace monge;

int main() {
  // --- 1. Sequential seaweed product -----------------------------------
  Rng rng(2024);
  const std::int64_t n = 1024;
  const MultiplyRequest product{Perm::random(n, rng), Perm::random(n, rng)};

  Solver seq;  // default backend: the arena-backed SeaweedEngine
  const Perm c_seq = seq.solve(product).c;  // O(n log n)
  std::printf("seaweed product of two %lld-permutations: %lld points\n",
              static_cast<long long>(n),
              static_cast<long long>(c_seq.point_count()));

  // --- 2. The same request on a simulated MPC cluster ------------------
  // The cluster is provisioned lazily: m = n^delta machines with
  // s = Õ(n^{1-delta}) words each, sized from the request.
  Solver mpc({.backend = SolverBackend::kMpcSim, .mpc_delta = 0.5});
  const MultiplyResult res = mpc.solve(product);
  std::printf(
      "MPC product: %s, %lld rounds on %lld machines, peak %lld words "
      "per machine (budget %lld)\n",
      res.c == c_seq ? "matches sequential" : "MISMATCH",
      static_cast<long long>(res.report.rounds),
      static_cast<long long>(mpc.cluster()->machines()),
      static_cast<long long>(res.report.max_machine_words),
      static_cast<long long>(mpc.cluster()->space_words()));
  MONGE_CHECK(res.c == c_seq);  // a wrong product fails the run

  // --- 3. Exact LIS in O(log n) rounds ----------------------------------
  LisRequest lis_req;
  lis_req.seq.resize(2048);
  for (auto& x : lis_req.seq) x = rng.next_in(0, 1 << 30);
  const LisResult lis = mpc.solve(lis_req);  // re-provisions for 2048
  const std::int64_t patience = lis::lis_length(lis_req.seq);
  std::printf("LIS of %zu random numbers: %lld (patience agrees: %s), "
              "%lld rounds\n",
              lis_req.seq.size(), static_cast<long long>(lis.lis),
              lis.lis == patience ? "yes" : "NO",
              static_cast<long long>(lis.rounds));
  MONGE_CHECK(lis.lis == patience);
  return 0;
}
