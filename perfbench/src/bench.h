// Shared plumbing of the repository benchmark: arguments, the per-run
// result record, latency statistics and the in-memory span recorder.
//
// Every workload (lis_kernel.cpp, multiply_batch.cpp, service_mixed.cpp,
// mpc_sim.cpp) fills one RunResult; main.cpp prints it as one JSON object.
// Spans are recorded only by this benchmark's own code, around calls into
// the library's public entry points — nothing under src/ is instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny input sizes, for the smoke test only.
  bool smoke = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_out;
};

/// Seed of the fixed input lists behind the deterministic counts. It never
/// depends on --seed, so those counts repeat exactly from run to run.
inline constexpr std::uint64_t kLedgerSeed = 0x5eed1ed6e5ULL;

/// An Rng for stream `stream` of run seed `seed` (distinct streams never
/// share inputs).
inline monge::Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  return monge::Rng(seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    1);
}

inline std::vector<std::int64_t> random_sequence(std::int64_t n,
                                                 monge::Rng& rng) {
  std::vector<std::int64_t> seq(static_cast<std::size_t>(n));
  for (auto& x : seq) x = rng.next_in(0, std::int64_t{1} << 40);
  return seq;
}

/// `count` random inclusive windows [l, r] over [0, n).
inline std::vector<std::pair<std::int64_t, std::int64_t>> random_windows(
    std::int64_t n, std::int64_t count, monge::Rng& rng) {
  std::vector<std::pair<std::int64_t, std::int64_t>> w;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t l = rng.next_in(0, n - 1);
    w.emplace_back(l, rng.next_in(l, n - 1));
  }
  return w;
}

/// Latency samples. Percentiles use the nearest-rank rule.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  double quantile(double q) const {
    if (v_.empty()) return 0.0;
    auto s = v_;
    std::sort(s.begin(), s.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(s.size())));
    return s[std::min(s.size() - 1, rank == 0 ? 0 : rank - 1)];
  }
  double median() const { return quantile(0.5); }
  /// Samples strictly beyond the q-quantile's rank.
  std::size_t beyond(double q) const {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v_.size())));
    return v_.size() - std::min(v_.size(), std::max<std::size_t>(rank, 1));
  }

 private:
  std::vector<double> v_;
};

/// Throughput of a closed loop: completed requests per second of time spent
/// in requests, taken over windows of `window` consecutive attempts. The
/// median window rate is what runs report; unlike the overall mean it does
/// not move when the host stalls the caller for a few windows.
class WindowedRate {
 public:
  explicit WindowedRate(int window) : window_(window) {}
  void add(double ms, bool completed) {
    busy_ms_ += ms;
    completed_ += completed ? 1 : 0;
    if (++attempts_ == window_) flush();
  }
  /// Median window rate; a run too short for one full window reports its
  /// partial window.
  double median() {
    if (rates_.size() == 0) flush();
    return rates_.median();
  }

 private:
  void flush() {
    if (busy_ms_ > 0) rates_.add(completed_ / (busy_ms_ / 1e3));
    busy_ms_ = 0;
    completed_ = 0;
    attempts_ = 0;
  }

  int window_;
  int attempts_ = 0;
  double completed_ = 0;
  double busy_ms_ = 0;
  Samples rates_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.
struct RunResult {
  std::int64_t attempted = 0;  ///< requests issued to the library
  std::int64_t failed = 0;     ///< exceptions, non-ok statuses, rejections,
                               ///< wrong answers
  std::int64_t checked = 0;    ///< outputs compared against an oracle
  std::int64_t wrong = 0;      ///< outputs that disagreed with the oracle
  std::map<std::string, std::int64_t> failure_kinds;
  std::map<std::string, Metric> metrics;
  /// Deterministic counts over fixed inputs (compared with ledger.json).
  std::map<std::string, std::int64_t> ledger;
  /// Within-run determinism violations (a count that should repeat did not).
  std::vector<std::string> steadiness_errors;
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& kind) {
    ++failed;
    ++failure_kinds[kind];
  }
  /// Records one oracle comparison; a mismatch is a failure.
  void check(bool ok, const std::string& what) {
    ++checked;
    if (!ok) {
      ++wrong;
      fail("wrong-answer: " + what);
    }
  }
  /// Records a deterministic count; a second record of the same name with
  /// another value is a steadiness failure.
  void count(const std::string& name, std::int64_t value) {
    auto [it, fresh] = ledger.emplace(name, value);
    if (!fresh && it->second != value) {
      steadiness_errors.push_back(name + ": " + std::to_string(it->second) +
                                  " then " + std::to_string(value));
    }
  }
};

/// Publishes the end-to-end latency metrics of a run: the median always
/// (the result line prints it on every workload), p90/p99 only where at
/// least ten samples lie beyond them.
inline void report_latency(RunResult& r, const Samples& lat) {
  r.metric("latency_p50_ms", lat.median(), "ms");
  r.metric("latency_samples", static_cast<double>(lat.size()), "count");
  if (lat.beyond(0.90) >= 10) r.metric("latency_p90_ms", lat.quantile(0.90), "ms");
  if (lat.beyond(0.99) >= 10) r.metric("latency_p99_ms", lat.quantile(0.99), "ms");
}

inline void report_failed_share(RunResult& r) {
  r.metric("failed_share",
           r.attempted == 0 ? 0.0
                            : static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted),
           "share");
}

/// Median of repeated set-ups, in seconds.
inline void report_setup(RunResult& r, const Samples& setup_s) {
  r.metric("setup_s", setup_s.median(), "s");
  r.metric("setup_repeats", static_cast<double>(setup_s.size()), "count");
}

/// Builds a workload's backend `reps` times and returns the last one; the
/// earlier ones are torn down before the next is built. Each workload calls
/// it once before its timed loop (keeping the result) and once after it
/// (discarding it), so setup_s is a median over repeats from both ends of
/// the run.
template <typename SetUp>
auto repeat_setup(int reps, SetUp&& set_up) {
  for (int i = 1; i < reps; ++i) (void)set_up();
  return set_up();
}

/// One attempt of a closed loop: counts it, times `solve`, feeds `rate`
/// and turns anything thrown into a classified failure. `solve` returns
/// whether the request completed and records its own non-ok outcomes;
/// answers are checked by the caller, after the timing. Returns the latency
/// in ms, or a negative value when the attempt did not complete.
template <typename Solve>
double timed_attempt(RunResult& r, WindowedRate& rate, Solve&& solve) {
  ++r.attempted;
  const auto t0 = Clock::now();
  bool completed = false;
  try {
    completed = solve();
  } catch (const std::out_of_range& e) {
    r.fail(std::string("std::out_of_range: ") + e.what());
  } catch (const std::exception& e) {
    r.fail(std::string("exception: ") + e.what());
  }
  const double ms = ms_between(t0, Clock::now());
  rate.add(ms, completed);
  return completed ? ms : -1.0;
}

/// One traced interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span or -1 for a root.
struct Span {
  std::string name;
  std::string layer;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;
  std::int64_t request = 0;
};

/// In-memory span recorder. Single-threaded: multi-threaded workloads take
/// their timestamps on their own threads and record the spans afterwards.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 12); }

  double now_ms() const { return ms_between(origin_, Clock::now()); }
  double at_ms(Clock::time_point t) const { return ms_between(origin_, t); }

  int add(std::string name, std::string layer, double start_ms, double end_ms,
          int parent, std::int64_t request) {
    spans_.push_back(Span{std::move(name), std::move(layer), start_ms, end_ms,
                          parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Opens a span ending at the matching end() call.
  int begin(const char* name, const char* layer, int parent,
            std::int64_t request) {
    const double t = now_ms();
    return add(name, layer, t, t, parent, request);
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ms = now_ms(); }

  /// Runs `fn` inside a span and returns the span's index.
  template <typename Fn>
  int run(const char* name, const char* layer, int parent,
          std::int64_t request, Fn&& fn) {
    const double t0 = now_ms();
    fn();
    return add(name, layer, t0, now_ms(), parent, request);
  }

  const std::vector<Span>& spans() const { return spans_; }
  double duration(int id) const {
    return spans_[static_cast<std::size_t>(id)].end_ms -
           spans_[static_cast<std::size_t>(id)].start_ms;
  }

  /// Self time of every span: its duration minus the part of its interval
  /// its children cover.
  std::vector<double> self_ms() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                              s.end_ms);
      }
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      double covered = 0, reach = spans_[i].start_ms;
      for (auto [a, b] : k) {
        a = std::max(a, reach);
        b = std::min(b, spans_[i].end_ms);
        if (b > a) {
          covered += b - a;
          reach = b;
        }
      }
      self[i] = (spans_[i].end_ms - spans_[i].start_ms) - covered;
    }
    return self;
  }

  /// Per request, the summed self time of the spans named `name`; the
  /// median over the requests that have such a span.
  double median_self(const std::string& name) const {
    const auto self = self_ms();
    std::map<std::int64_t, double> per_request;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) per_request[spans_[i].request] += self[i];
    }
    Samples s;
    for (const auto& [req, v] : per_request) s.add(v);
    return s.median();
  }

  /// Writes every span as one JSON array (Chrome trace-event "X" events
  /// with the parent and request id in args).
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Tracing overhead and the add-up check of a traced run.
///
/// trace.overhead_share is the traced run's median latency against the
/// untraced run's. On the closed loops the request span's two timestamps
/// sit outside the library call, so this reads host noise around zero; the
/// recording cost itself is trace.span_cost_ns, measured directly.
///
/// `unattributed` holds, per traced request, the share of the request's
/// time that its replayed layer spans do not cover: (request - replay) /
/// request, which is the Solver's own dispatch share. A delegate missing
/// from the replay pushes it up, a replay slower than the request pushes it
/// below zero. Its median must lie in [-0.25, 0.2] (a replay runs
/// after its request, so host noise moves it both ways); outside that the
/// run carries a note saying the layer times do not add up.
inline void report_trace_checks(RunResult& r, const Samples& untraced,
                                const Samples& traced,
                                const Samples& unattributed) {
  const double base = untraced.median();
  r.metric("trace.overhead_share",
           base > 0 ? traced.median() / base - 1.0 : 0.0, "share");
  const double share = unattributed.median();
  r.metric("trace.unattributed_share", share, "share");
  if (share < -0.25 || share > 0.2) {
    r.notes.push_back("trace add-up check: the replayed layers leave " +
                      std::to_string(share * 100) +
                      "% of the median traced request unattributed, outside "
                      "[-25%, 20%]");
  }
  Tracer probe;
  constexpr int kProbeSpans = 1 << 14;
  const auto t0 = Clock::now();
  for (int i = 0; i < kProbeSpans; ++i) {
    probe.end(probe.begin("probe", "bench", -1, i));
  }
  r.metric("trace.span_cost_ns", ms_between(t0, Clock::now()) * 1e6 / kProbeSpans,
           "ns");
}

/// Writes the spans when the run was asked to (--spans).
inline void finish_trace(const Args& args, const Tracer& tracer,
                         RunResult& r) {
  if (!args.spans_out.empty() && !tracer.write(args.spans_out)) {
    r.notes.push_back("could not write spans to " + args.spans_out);
  }
}

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

// The four workloads. Each fills `r` and returns normally; library
// failures are counted in `r`, never thrown.
void run_lis_kernel(const Args& args, RunResult& r);
void run_multiply_batch(const Args& args, RunResult& r);
void run_service_mixed(const Args& args, RunResult& r);
void run_mpc_sim(const Args& args, RunResult& r);

}  // namespace perfbench
