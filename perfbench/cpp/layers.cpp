// Per-layer attribution from obs::prof aggregates. A layer's self time is
// its spans' duration minus the part their child spans cover, which the
// profiler already keeps per stack path; this file only sums paths.
#include <algorithm>

#include "bench.hpp"

namespace perfbench {

namespace {

using ByPath = std::map<std::string, argus::obs::prof::PathStat>;

std::string leaf_of(const std::string& path) {
  const auto cut = path.rfind(';');
  return cut == std::string::npos ? path : path.substr(cut + 1);
}

bool has_segment(const std::string& path, const std::string& seg) {
  std::size_t pos = 0;
  while (pos <= path.size()) {
    const auto end = std::min(path.find(';', pos), path.size());
    if (path.compare(pos, end - pos, seg) == 0) return true;
    pos = end + 1;
  }
  return false;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

SpanTotals span_totals(const ByPath& by_path, const std::string& leaf_prefix,
                       const std::string& under) {
  SpanTotals t;
  for (const auto& [path, st] : by_path) {
    if (!starts_with(leaf_of(path), leaf_prefix)) continue;
    // Per-handshake figures leave provisioning out; provisioning figures
    // ask for it explicitly through `under`.
    if (under.empty() ? has_segment(path, "bench.provision")
                      : !has_segment(path, under)) {
      continue;
    }
    t.count += st.count;
    t.incl_us += static_cast<double>(st.incl_ns) / 1e3;
    t.self_us += static_cast<double>(st.self_ns) / 1e3;
  }
  return t;
}

void crypto_and_engine_layers(const ByPath& by_path, double hs, Result* out) {
  const auto per_hs = [hs](double v) { return hs > 0 ? v / hs : 0.0; };
  const auto self = [&](const char* leaf) {
    return span_totals(by_path, leaf).self_us;
  };
  const auto calls = [&](const char* leaf) {
    return static_cast<double>(span_totals(by_path, leaf).count);
  };
  out->set("crypto.verify_calls_per_hs",
           per_hs(calls("crypto.ec.shamir_verify") + calls("crypto.ecdsa.verify")),
           "count");
  out->set("crypto.verify_us_per_hs",
           per_hs(self("crypto.ec.shamir_verify") + self("crypto.ecdsa.verify")),
           "us");
  out->set("crypto.sign_us_per_hs", per_hs(self("crypto.ecdsa.sign")), "us");
  out->set("crypto.ecdh_us_per_hs",
           per_hs(self("crypto.ec.scalar_mul") + self("crypto.ec.precomp_mul")),
           "us");
  out->set("crypto.base_mul_us_per_hs", per_hs(self("crypto.ec.scalar_mul_base")),
           "us");
  out->set("crypto.sym_us_per_hs",
           per_hs(self("crypto.hmac.") + self("crypto.aes.")), "us");
  out->set("argus.subject_us_per_hs", per_hs(self("subject.")), "us");
  out->set("argus.object_us_per_hs", per_hs(self("object.")), "us");
}

void provision_layers(const ByPath& by_path, double objects, Result* out) {
  const SpanTotals prov = span_totals(by_path, "bench.provision", "bench.provision");
  const SpanTotals signs = span_totals(by_path, "crypto.ecdsa.sign", "bench.provision");
  out->set("harness.provision_us_per_object", prov.incl_us / objects, "us");
  out->set("backend.sign_calls_per_object",
           static_cast<double>(signs.count) / objects, "count");
  // The one-time lazy table build lands in the first provisioning.
  const SpanTotals init = span_totals(by_path, "crypto.ec.fixed_base_init",
                                      "bench.provision");
  out->set("crypto.fixed_base_init_ms", init.self_us / 1e3, "ms");
}

double top_level_coverage(const argus::obs::prof::Profiler& prof,
                          double busy_wall_us) {
  double covered_us = 0;
  for (const auto& [path, st] : prof.by_path()) {
    if (path.find(';') == std::string::npos) {
      covered_us += static_cast<double>(st.incl_ns) / 1e3;
    }
  }
  return busy_wall_us > 0 ? covered_us / busy_wall_us : 0.0;
}

}  // namespace perfbench
