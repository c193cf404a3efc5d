// Scenario: similarity of two DNA fragments via LCS (Corollary 1.3.1).
//
// The Hunt–Szymanski reduction lists matching position pairs (quadratic in
// the worst case, n²/4 expected for DNA's 4-letter alphabet) and computes
// the LCS as a strict LIS of the pair sequence — the regime the paper's
// Corollary 1.3.1 addresses with m = n^{1+δ} machines. One LcsRequest on
// the MPC backend does all of it: the Solver provisions the cluster for
// the match count and runs the Theorem 1.3 LIS over the match sequence.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/solver.h"
#include "lcs/hunt_szymanski.h"
#include "util/check.h"
#include "util/rng.h"

using namespace monge;

namespace {

std::vector<std::int64_t> mutate(const std::vector<std::int64_t>& src,
                                 double rate, Rng& rng) {
  std::vector<std::int64_t> out;
  for (std::int64_t base : src) {
    const double roll = rng.next_double();
    if (roll < rate / 3) continue;               // deletion
    if (roll < 2 * rate / 3) {                   // substitution
      out.push_back(rng.next_in(0, 3));
      continue;
    }
    out.push_back(base);
    if (roll >= 1.0 - rate / 3) out.push_back(rng.next_in(0, 3));  // insertion
  }
  return out;
}

std::string preview(const std::vector<std::int64_t>& s) {
  static const char* alpha = "ACGT";
  std::string out;
  for (std::size_t i = 0; i < std::min<std::size_t>(s.size(), 48); ++i) {
    out += alpha[s[i] & 3];
  }
  return out + "...";
}

}  // namespace

int main(int argc, char** argv) {
  // Optional ancestor length (default 600 bp). The match-pair count — and
  // the simulated cluster work — grows quadratically, so CI smoke-runs
  // pass a smaller size while the default stays a meaty demo.
  std::int64_t length = 600;
  if (argc > 1) {
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(argv[1], &end, 10);
    // The match-pair count is Θ(n²/4), so cap n where the demo stays
    // tractable (10^4 → ~25M pairs, minutes of simulated-cluster work);
    // the cap also rejects ERANGE-saturated values.
    constexpr long long kMaxLength = 10'000;
    if (end == argv[1] || *end != '\0' || errno == ERANGE || parsed < 4 ||
        parsed > kMaxLength) {
      std::fprintf(stderr, "usage: %s [ancestor_length in [4, %lld]]\n",
                   argv[0], kMaxLength);
      return 1;
    }
    length = parsed;
  }
  Rng rng(42);
  std::vector<std::int64_t> ancestor(static_cast<std::size_t>(length));
  for (auto& b : ancestor) b = rng.next_in(0, 3);
  const auto fragment_a = mutate(ancestor, 0.15, rng);
  const auto fragment_b = mutate(ancestor, 0.15, rng);

  std::printf("fragment A (%zu bp): %s\n", fragment_a.size(),
              preview(fragment_a).c_str());
  std::printf("fragment B (%zu bp): %s\n\n", fragment_b.size(),
              preview(fragment_b).c_str());

  // The Solver provisions the cluster for the match count (Θ(n²/4) pairs
  // for DNA — the paper's m = n^{1+δ} regime relative to the fragments).
  Solver solver({.backend = SolverBackend::kMpcSim, .mpc_delta = 0.5});
  const LcsResult res = solver.solve(LcsRequest{fragment_a, fragment_b});

  // Cross-check against the sequential Hunt–Szymanski route (patience
  // sorting over the same match sequence).
  const std::int64_t sequential = lcs::lcs_hs(fragment_a, fragment_b);
  std::printf("match pairs: %lld   MPC rounds: %lld\n",
              static_cast<long long>(res.matches),
              static_cast<long long>(res.rounds));
  std::printf("LCS length: %lld (sequential Hunt–Szymanski %lld, %s)\n",
              static_cast<long long>(res.lcs),
              static_cast<long long>(sequential),
              res.lcs == sequential ? "agrees" : "MISMATCH");
  MONGE_CHECK(res.lcs == sequential);  // a wrong answer fails the run
  std::printf("similarity: %.1f%% of the shorter fragment\n",
              100.0 * static_cast<double>(res.lcs) /
                  static_cast<double>(
                      std::min(fragment_a.size(), fragment_b.size())));
  return 0;
}
