// perfbench — the repository benchmark binary.
//
//   perfbench --workload <lis-kernel|multiply-batch|service-mixed|mpc-sim>
//             --seed N --seconds S --trace 0|1 [--smoke] [--spans PATH]
//
// Runs one workload in this process and prints one JSON object (the last
// line of stdout) with every metric it measured, the deterministic counts,
// the correctness tally and a hardware/build fingerprint. perfbench/run.py
// builds this binary and turns that object into the benchmark's result line.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "monge/steady_ant_simd.h"
#include "monge/version.h"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string cache_sizes() {
  std::ostringstream os;
  os << "L1d=" << sysconf(_SC_LEVEL1_DCACHE_SIZE)
     << " L2=" << sysconf(_SC_LEVEL2_CACHE_SIZE)
     << " L3=" << sysconf(_SC_LEVEL3_CACHE_SIZE);
  return os.str();
}

std::string fingerprint_json() {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"cache_bytes\": " << json_string(cache_sizes())
     << ", \"steady_ant_isa\": "
     << json_string(monge::steady_ant_isa_name(monge::steady_ant_active_isa()))
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"monge_version\": " << json_string(monge::kVersionString) << "}";
  return os.str();
}

template <typename Map, typename Fmt>
std::string json_object(const Map& m, Fmt&& fmt) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += json_string(k) + ": " + fmt(v);
  }
  return out + "}";
}

template <typename Vec>
std::string json_list(const Vec& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ", ";
    out += json_string(v[i]);
  }
  return out + "]";
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W --seed N --seconds S --trace 0|1 "
               "[--smoke] [--spans PATH]\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const auto is = [&](const char* f) { return std::strcmp(argv[i], f) == 0; };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (is("--workload")) {
      a.workload = value();
    } else if (is("--seed")) {
      a.seed = std::strtoull(value(), nullptr, 10);
    } else if (is("--seconds")) {
      a.seconds = std::atof(value());
    } else if (is("--trace")) {
      a.trace = std::atoi(value()) != 0;
    } else if (is("--smoke")) {
      a.smoke = true;
    } else if (is("--spans")) {
      a.spans_out = value();
    } else {
      usage(argv[0]);
    }
  }
  if (a.workload.empty() || !(a.seconds > 0)) usage(argv[0]);
  return a;
}

}  // namespace

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\": " << json_string(s.name)
        << ", \"cat\": " << json_string(s.layer)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << json_number(s.start_ms * 1e3)
        << ", \"dur\": " << json_number((s.end_ms - s.start_ms) * 1e3)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  RunResult r;
  try {
    if (args.workload == "lis-kernel") {
      run_lis_kernel(args, r);
    } else if (args.workload == "multiply-batch") {
      run_multiply_batch(args, r);
    } else if (args.workload == "service-mixed") {
      run_service_mixed(args, r);
    } else if (args.workload == "mpc-sim") {
      run_mpc_sim(args, r);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    // Library failures are counted inside the workloads; anything reaching
    // here is a failure of the benchmark itself.
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  report_failed_share(r);
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  const auto metric_json = [](const Metric& m) {
    return "{\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  };
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"attempted\": %lld, "
      "\"failed\": %lld, \"checked\": %lld, \"wrong\": %lld, "
      "\"failure_kinds\": %s, \"metrics\": %s, \"ledger\": %s, "
      "\"steadiness_errors\": %s, \"notes\": %s, \"fingerprint\": %s}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      static_cast<long long>(r.attempted), static_cast<long long>(r.failed),
      static_cast<long long>(r.checked), static_cast<long long>(r.wrong),
      json_object(r.failure_kinds,
                  [](std::int64_t v) { return std::to_string(v); })
          .c_str(),
      json_object(r.metrics, metric_json).c_str(),
      json_object(r.ledger, [](std::int64_t v) { return std::to_string(v); })
          .c_str(),
      json_list(r.steadiness_errors).c_str(), json_list(r.notes).c_str(),
      fingerprint_json().c_str());
  return 0;
}
