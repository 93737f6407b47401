// Shared pieces of the repo benchmark program (argus_perfbench).
//
// The program measures the argus layers from outside: it times its own
// calls into public functions, reads public stats() structs, reads the
// real argusd process's /proc entries, and reads the spans obs::prof
// already records. Nothing here is compiled into src/.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "argus/subject_engine.hpp"
#include "obs/prof.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string argusd;  // path of the argusd binary
};

/// One named metric with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main(): the metrics of the pass
/// that ran, figures shown but not gated, the handshake accounting and
/// named output checks.
struct Result {
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, bool> checks;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

Result run_daemon(const Options& opt);

// --- helpers (main.cpp) ---------------------------------------------------

inline double now_s() {
  return static_cast<double>(argus::obs::prof::now_ns()) / 1e9;
}
/// Sorted-sample percentile (nearest rank); 0 for no samples.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}
/// Arithmetic mean; 0 for no samples.
double mean(const std::vector<double>& samples);

struct ProcStatus {
  double hwm_mb = 0;              // VmHWM
  std::uint64_t ctx_switches = 0;  // voluntary + nonvoluntary
};
/// /proc/<pid>/status.
ProcStatus read_status(int pid);
/// User+sys CPU seconds of a whole process; nullopt if its CPU clock
/// cannot be read.
std::optional<double> process_cpu_s(int pid);

/// Engine-level result set: (object, level, variant) triples, order-free.
using ResultSet = std::set<std::tuple<std::string, int, std::string>>;
ResultSet result_set(const std::vector<argus::core::DiscoveredService>& s);

// --- per-layer attribution (layers.cpp) -----------------------------------

/// Aggregates over a finished profile for every scope whose leaf label
/// starts with `leaf_prefix`. With `under` set, only scopes whose stack
/// contains that label count; without it, scopes under bench.provision
/// are left out (per-handshake figures exclude provisioning).
struct SpanTotals {
  std::uint64_t count = 0;
  double incl_us = 0;
  double self_us = 0;
};
SpanTotals span_totals(const std::map<std::string, argus::obs::prof::PathStat>& by_path,
                       const std::string& leaf_prefix,
                       const std::string& under = "");

/// Fill the crypto/argus per-layer metrics shared by every workload from
/// a profile that resolved `hs` handshakes.
void crypto_and_engine_layers(
    const std::map<std::string, argus::obs::prof::PathStat>& by_path,
    double hs, Result* out);

/// Provisioning figures (make_scenario under bench.provision spans) for
/// `objects` provisioned objects.
void provision_layers(const std::map<std::string, argus::obs::prof::PathStat>& by_path,
                      double objects, Result* out);

/// Share of `busy_wall_us` covered by top-level spans of the profile.
double top_level_coverage(const argus::obs::prof::Profiler& prof,
                          double busy_wall_us);

}  // namespace perfbench
