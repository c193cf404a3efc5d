// Online window-LIS serving benchmark: query::SemiLocalIndex lookups
// against the pre-index Solver flow, which re-runs the seaweed kernel
// machinery for every arriving request and answers through
// lis::kernel_window_lis_batch.
//
// Serving model: queries arrive ONE AT A TIME (the online regime the
// index exists for). The index answers each from the persisted merge tree
// in O(log² n); the re-solve baseline must rebuild the kernel first —
// exactly what a LisRequest{windows} did before the query tier existed.
// Because a full n = 2^14 kernel build per query is ~5 orders of
// magnitude slower than a lookup, the baseline is measured on a subsample
// (--baseline-resolves, reported in the snapshot) and its qps computed
// from the per-query mean; the index side serves every query. The offline
// middle ground — ONE kernel build, then the whole batch through the
// Fenwick sweep — is also reported for context.
//
// Usage:
//   bench_query [--n N] [--queries Q] [--baseline-resolves B] [--seed S]
//               [--json PATH]
// BENCH_query.json is a committed run of this.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "lis/kernel.h"
#include "lis/sequential.h"
#include "monge/engine.h"
#include "query/semilocal_index.h"
#include "util/rng.h"
#include "util/table.h"

using namespace monge;

namespace {

struct BenchOptions {
  std::int64_t n = 1 << 14;
  std::int64_t queries = 2000;
  std::int64_t baseline_resolves = 24;
  std::uint64_t seed = 1;
  const char* json = nullptr;
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--n N] [--queries Q] [--baseline-resolves B]"
               " [--seed S] [--json PATH]\n",
               argv0);
  std::exit(2);
}

BenchOptions parse_args(int argc, char** argv) {
  BenchOptions o;
  for (int i = 1; i < argc; ++i) {
    const auto flag = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0;
    };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    if (flag("--n")) {
      o.n = std::atoll(value());
    } else if (flag("--queries")) {
      o.queries = std::atoll(value());
    } else if (flag("--baseline-resolves")) {
      o.baseline_resolves = std::atoll(value());
    } else if (flag("--seed")) {
      o.seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (flag("--json")) {
      o.json = value();
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (o.n < 1 || o.queries < 1 || o.baseline_resolves < 1) {
    usage_and_exit(argv[0]);
  }
  return o;
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions o = parse_args(argc, argv);

  Rng rng(o.seed);
  std::vector<std::int64_t> seq(static_cast<std::size_t>(o.n));
  for (auto& x : seq) x = rng.next_in(0, o.n);

  // The query trace: uniform [l, r] spans.
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
  windows.reserve(static_cast<std::size_t>(o.queries));
  for (std::int64_t q = 0; q < o.queries; ++q) {
    std::int64_t a = rng.next_in(0, o.n - 1);
    std::int64_t b = rng.next_in(0, o.n - 1);
    if (a > b) std::swap(a, b);
    windows.emplace_back(a, b);
  }

  // Build once (timed): this is the cost the index pays up front and the
  // re-solve baseline pays per query.
  const auto build_t0 = std::chrono::steady_clock::now();
  const query::SemiLocalIndex index = query::SemiLocalIndex::from_sequence(seq);
  const double build_s = seconds_since(build_t0);

  // Index serving: every query answered online, individually timed.
  std::vector<double> index_us;
  index_us.reserve(windows.size());
  std::int64_t checksum = 0;
  const auto serve_t0 = std::chrono::steady_clock::now();
  for (const auto& [l, r] : windows) {
    const auto t0 = std::chrono::steady_clock::now();
    checksum += index.window_lis(l, r);
    index_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  const double serve_s = seconds_since(serve_t0);
  const double index_qps = static_cast<double>(o.queries) / serve_s;

  // Re-solve baseline: kernel rebuild + single-window sweep per query, on
  // a subsample (mean extrapolates to qps).
  const auto resolves =
      std::min<std::int64_t>(o.baseline_resolves, o.queries);
  std::vector<double> resolve_ms;
  std::int64_t resolve_checksum = 0;
  for (std::int64_t q = 0; q < resolves; ++q) {
    const std::pair<std::int64_t, std::int64_t> one[] = {
        windows[static_cast<std::size_t>(q)]};
    const auto t0 = std::chrono::steady_clock::now();
    const Perm kernel = lis::lis_kernel(lis::rank_reduce_strict(seq),
                                        default_seaweed_engine());
    resolve_checksum += lis::kernel_window_lis_batch(kernel, one)[0];
    resolve_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  double resolve_mean_ms = 0.0;
  for (const double ms : resolve_ms) resolve_mean_ms += ms;
  resolve_mean_ms /= static_cast<double>(resolves);
  const double resolve_qps = 1000.0 / resolve_mean_ms;

  // Offline middle ground: ONE kernel build amortized over the whole
  // batch, answered by the Fenwick sweep — the best the pre-index flow
  // can do when the batch is known up front.
  const auto offline_t0 = std::chrono::steady_clock::now();
  const Perm offline_kernel = lis::lis_kernel(lis::rank_reduce_strict(seq),
                                              default_seaweed_engine());
  const auto offline_answers =
      lis::kernel_window_lis_batch(offline_kernel, windows);
  const double offline_s = seconds_since(offline_t0);
  const double offline_qps = static_cast<double>(o.queries) / offline_s;

  // Sanity: all three flows must agree (the test battery pins this; the
  // bench just refuses to report numbers for disagreeing answers).
  std::int64_t offline_checksum = 0;
  for (const auto a : offline_answers) offline_checksum += a;
  if (checksum != offline_checksum) {
    std::fprintf(stderr, "answer mismatch: index %lld vs offline %lld\n",
                 static_cast<long long>(checksum),
                 static_cast<long long>(offline_checksum));
    return 1;
  }
  (void)resolve_checksum;

  const double speedup = index_qps / resolve_qps;
  const double index_p50 = percentile(index_us, 0.50);
  const double index_p99 = percentile(index_us, 0.99);

  std::printf(
      "SemiLocalIndex online serving: n=%lld, %lld queries "
      "(re-solve baseline sampled at %lld)\n\n",
      static_cast<long long>(o.n), static_cast<long long>(o.queries),
      static_cast<long long>(resolves));
  Table t({"metric", "value"});
  t.add_row({"index build ms", Table::num(build_s * 1000.0, 2)});
  t.add_row({"index memory MiB",
             Table::num(static_cast<double>(index.memory_bytes()) /
                            (1024.0 * 1024.0),
                        2)});
  t.add_row({"index qps", Table::num(index_qps, 0)});
  t.add_row({"index p50 us", Table::num(index_p50, 2)});
  t.add_row({"index p99 us", Table::num(index_p99, 2)});
  t.add_row({"re-solve qps", Table::num(resolve_qps, 2)});
  t.add_row({"re-solve mean ms", Table::num(resolve_mean_ms, 2)});
  t.add_row({"offline batch qps", Table::num(offline_qps, 0)});
  t.add_row({"index vs re-solve", Table::num(speedup, 1) + "x"});
  t.add_row({"index vs offline", Table::num(index_qps / offline_qps, 1) + "x"});
  std::printf("%s\n", t.to_string().c_str());

  if (o.json != nullptr) {
    FILE* f = std::fopen(o.json, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", o.json);
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"bench_query\",\n"
        "  \"config\": {\n"
        "    \"n\": %lld,\n"
        "    \"queries\": %lld,\n"
        "    \"baseline_resolves\": %lld,\n"
        "    \"seed\": %llu\n"
        "  },\n"
        "  \"metrics\": {\n"
        "    \"index_build_ms\": %.3f,\n"
        "    \"index_memory_bytes\": %lld,\n"
        "    \"index_qps\": %.1f,\n"
        "    \"index_p50_us\": %.3f,\n"
        "    \"index_p99_us\": %.3f,\n"
        "    \"resolve_qps\": %.3f,\n"
        "    \"resolve_mean_ms\": %.3f,\n"
        "    \"offline_batch_qps\": %.1f,\n"
        "    \"speedup_vs_resolve\": %.1f,\n"
        "    \"speedup_vs_offline_batch\": %.2f\n"
        "  }\n"
        "}\n",
        static_cast<long long>(o.n), static_cast<long long>(o.queries),
        static_cast<long long>(resolves),
        static_cast<unsigned long long>(o.seed), build_s * 1000.0,
        static_cast<long long>(index.memory_bytes()), index_qps, index_p50,
        index_p99, resolve_qps, resolve_mean_ms, offline_qps, speedup,
        index_qps / offline_qps);
    std::fclose(f);
    std::printf("snapshot written to %s\n", o.json);
  }
  return 0;
}
