// argus_perfbench — the repo benchmark program.
//
//   argus_perfbench --workload daemon_crowd|daemon_level2
//                   --seed N --seconds S --trace 0|1
//
// --trace 0 is the end-to-end pass (profiler off, real argusd); --trace 1
// is the separate per-layer pass. Lines before the last show box.calib_ms
// and figures that are printed but not gated; the last stdout line is one
// JSON object: correct/attempted/failed/metrics plus the named output
// checks. Exit 0 when the run completed (even with a failed check: the
// JSON says so), 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <unistd.h>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(samples.size() - 1, static_cast<std::size_t>(rank) - 1);
  return samples[idx];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

ProcStatus read_status(int pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/status";
  ProcStatus st;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return st;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      st.hwm_mb = static_cast<double>(std::strtoull(line + 6, nullptr, 10)) / 1024.0;
    } else if (std::strncmp(line, "voluntary_ctxt_switches:", 24) == 0) {
      st.ctx_switches += std::strtoull(line + 24, nullptr, 10);
    } else if (std::strncmp(line, "nonvoluntary_ctxt_switches:", 27) == 0) {
      st.ctx_switches += std::strtoull(line + 27, nullptr, 10);
    }
  }
  std::fclose(f);
  return st;
}

std::optional<double> process_cpu_s(int pid) {
  // The process CPU clock reads user+sys with nanosecond resolution.
  clockid_t cid{};
  timespec ts{};
  if (clock_getcpuclockid(pid, &cid) != 0 || clock_gettime(cid, &ts) != 0) {
    return std::nullopt;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

ResultSet result_set(const std::vector<argus::core::DiscoveredService>& s) {
  ResultSet out;
  for (const auto& d : s) out.emplace(d.object_id, d.level, d.variant_tag);
  return out;
}

}  // namespace perfbench

namespace {

volatile std::uint64_t g_calib_sink = 0;

/// Machine-drift probe: a fixed integer loop owned by the benchmark, so a
/// noisy verdict can be told apart from a slow box. Four independent
/// multiply chains keep the execution ports busy, so the probe also slows
/// when a sibling hardware thread competes for them. Median of 5 timings.
double calib_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = perfbench::now_s();
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    for (int i = 0; i < 30'000'000; ++i) {
      a = a * 6364136223846793005ull + 1442695040888963407ull;
      b = b * 2862933555777941757ull + 3037000493ull;
      c = c * 3202034522624059733ull + 4354685564936845319ull;
      d = d * 6364136223846793005ull + 3037000493ull;
    }
    g_calib_sink = a ^ b ^ c ^ d;
    ms.push_back((perfbench::now_s() - t0) * 1e3);
  }
  return perfbench::median(ms);
}

void usage() {
  std::fprintf(stderr,
               "usage: argus_perfbench --workload daemon_crowd|daemon_level2\n"
               "                       [--seed N] [--seconds S] [--trace 0|1]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) { usage(); return 2; }
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (a == "--trace") opt.trace = v == "1";
    else { usage(); return 2; }
  }
  if (opt.seconds <= 0 ||
      (opt.workload != "daemon_crowd" && opt.workload != "daemon_level2")) {
    usage();
    return 2;
  }

  // argusd is built next to this binary.
  char self[4096] = {0};
  const ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  std::string dir = n > 0 ? std::string(self, static_cast<std::size_t>(n)) : "";
  dir = dir.substr(0, dir.find_last_of('/') + 1);
  opt.argusd = dir + "argusd";

  const double calib = calib_ms();
  std::printf("box.calib_ms %.3f\n", calib);
  std::fflush(stdout);

  perfbench::Result res = perfbench::run_daemon(opt);
  if (opt.trace) res.set("box.calib_ms", calib, "ms");

  for (const auto& [name, m] : res.info) {
    std::printf("%s %.6g %s (shown, not gated)\n", name.c_str(), m.value, m.unit.c_str());
  }

  bool correct = res.failed == 0 && res.attempted > 0;
  for (const auto& [name, ok] : res.checks) correct &= ok;

  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(res.attempted);
  out += ",\"failed\":" + std::to_string(res.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : res.metrics) {
    char val[64];
    std::snprintf(val, sizeof(val), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += first ? "" : ",";
    out += "\"" + name + "\":{\"value\":" + val + ",\"unit\":\"" + m.unit + "\"}";
    first = false;
  }
  out += "},\"checks\":{";
  first = true;
  for (const auto& [name, ok] : res.checks) {
    out += first ? "" : ",";
    out += "\"" + name + "\":" + (ok ? "true" : "false");
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
