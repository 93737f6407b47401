// Transport: discovery rounds over the reliable-ordered layer, measured
// two ways at 0 / 10 / 30% shim loss:
//
//   virtual   daemon + subject over the in-memory pipe hub on a
//             hand-stepped clock — deterministic round time, retransmit
//             and resend counters, delivery ratio. These are the
//             benchdiff-gated numbers: any delta is a real change in the
//             reliable layer or the retry driver, not machine noise.
//   wall      the same engine rooms over real UDP loopback sockets —
//             handshakes/s and p99 round latency. Informational on
//             shared runners.
//
// One "handshake" is a resolved channel: the full QUE1/RES1/QUE2/RES2
// exchange for one hosted object, carried over the reliable connection.
//
// `--smoke` is the ctest/CI gate: clean pipe rounds must complete with
// zero retransmits and zero reliable-layer resends, lossy rounds must
// still deliver every service (delivery_ratio == 1.0, recovery counters
// > 0), the lossy cell must replay byte-deterministically, and a UDP
// loopback round at 10% shim loss must complete. (The two-process CI
// smoke additionally asserts zero leaked daemon connections.)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_args.hpp"
#include "fault/netem.hpp"
#include "harness/sweep.hpp"
#include "obs/metrics.hpp"
#include "transport/client.hpp"
#include "transport/host.hpp"
#include "transport/pipe.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"

using namespace argus;

namespace {

struct Grid {
  std::size_t objects = 16;
  std::size_t rounds = 8;       // virtual rounds per loss point
  std::size_t wall_rounds = 12; // loopback rounds per loss point
};

constexpr double kLossPoints[] = {0.0, 0.10, 0.30};

core::DiscoveryScenario scenario_for(std::size_t objects) {
  harness::SweepPoint point;
  point.level = 2;
  point.objects = objects;
  point.seed = 17;
  return harness::make_scenario(point);
}

/// `cfg` reporting into `metrics`.
template <typename Config>
Config metered(Config cfg, obs::MetricsRegistry* metrics) {
  cfg.metrics = metrics;
  return cfg;
}

transport::HostConfig host_config(const core::DiscoveryScenario& scenario,
                                  obs::MetricsRegistry* metrics) {
  transport::HostConfig cfg;
  cfg.epoch = scenario.epoch;
  cfg.metrics = metrics;
  for (std::size_t i = 0; i < scenario.objects.size(); ++i) {
    cfg.objects.push_back(metered(core::object_config(scenario, i), metrics));
  }
  return cfg;
}

transport::ClientParams client_params(const core::DiscoveryScenario& s) {
  transport::ClientParams params;
  params.expected_objects = s.objects.size();
  params.epoch = s.epoch;
  params.retry.mode = core::RetryMode::kOn;
  return params;
}

transport::EndpointParams endpoint_params(std::uint32_t base) {
  transport::EndpointParams p;
  p.conn_id_base = base;
  // Loss-hardened RTO profile. The default 2000 ms backoff ceiling allows
  // only ~4 recovery attempts inside the 8 s round deadline; at 30% loss
  // with ~100 frames outstanding per round, some frame misses all of its
  // retransmissions often enough to stall the cumulative frontier for the
  // whole round. A 250 ms ceiling buys ~30 attempts, which makes loss of
  // a frame within the deadline astronomically unlikely while leaving the
  // clean path untouched (first RTO still fires after rto_initial_ms).
  p.reliable.rto_initial_ms = 60;
  p.reliable.rto_max_ms = 250;
  p.reliable.max_resend = 60;
  return p;
}

fault::NetemParams shim_params(double loss, std::uint64_t seed) {
  fault::NetemParams p;
  p.drop_prob = loss;
  p.seed = seed;
  return p;
}

/// One virtual-clock loss point: daemon + subject over the pipe hub.
struct VirtualCell {
  bool ok = true;
  double total_round_ms = 0;   // summed over rounds — deterministic
  double worst_ratio = 1.0;
  std::uint64_t retransmits = 0;  // QUE1 + QUE2 (retry driver)
  std::uint64_t resends = 0;      // reliable-layer DATA retransmissions
  std::uint64_t shim_dropped = 0;
  std::size_t handshakes = 0;
};

VirtualCell run_virtual(const Grid& grid, double loss) {
  const core::DiscoveryScenario scenario = scenario_for(grid.objects);
  transport::PipeHub hub;
  auto dsock = hub.open(0);
  auto csock = hub.open(0);
  fault::NetemSocket dshim(*dsock, shim_params(loss, 13));
  fault::NetemSocket cshim(*csock, shim_params(loss, 14));
  obs::MetricsRegistry metrics;
  transport::TransportEndpoint dend(dshim, endpoint_params(7000), &metrics);
  transport::TransportEndpoint cend(cshim, endpoint_params(9000), &metrics);
  transport::SockTransport dtrans(dend), ctrans(cend);
  transport::ObjectHost host(host_config(scenario, &metrics), dtrans);
  transport::SubjectClient client(
      metered(core::subject_config(scenario), &metrics),
      client_params(scenario), ctrans);

  VirtualCell cell;
  double now = 0;
  for (std::size_t r = 0; r < grid.rounds; ++r) {
    cend.connect(dsock->local_addr(), now);
    client.begin_round(0, now);
    const double deadline = now + 60000;
    while (!client.round_done() && now < deadline) {
      now += 5;
      host.pump(now);
      client.step(now);
    }
    const transport::ClientReport report = client.finish_round(now);
    cell.ok = cell.ok && report.complete();
    cell.total_round_ms += report.round_ms;
    cell.worst_ratio = std::min(cell.worst_ratio, report.delivery_ratio());
    cell.retransmits += report.que1_retransmits + report.que2_retransmits;
    cell.handshakes += report.resolved;
  }
  if (const auto* conn = cend.conn(dsock->local_addr())) {
    cell.resends = conn->stats().resends;
  }
  cell.shim_dropped = dshim.stats().dropped + cshim.stats().dropped;
  return cell;
}

/// One wall-clock loss point: the same rooms over real UDP loopback,
/// with the netem shim between the endpoints and the wire.
struct WallCell {
  bool ok = true;
  double handshakes_per_s = 0;
  double p99_round_ms = 0;
};

WallCell run_wall(const Grid& grid, double loss, std::uint64_t repeat) {
  const core::DiscoveryScenario scenario = scenario_for(grid.objects);
  auto dsock = transport::UdpSocket::bind_loopback(0);
  auto csock = transport::UdpSocket::bind_loopback(0);
  WallCell cell;
  if (!dsock || !csock) {
    std::fprintf(stderr, "loopback bind failed\n");
    cell.ok = false;
    return cell;
  }
  fault::NetemSocket dshim(*dsock, shim_params(loss, 21));
  fault::NetemSocket cshim(*csock, shim_params(loss, 22));
  obs::MetricsRegistry metrics;
  transport::TransportEndpoint dend(dshim, endpoint_params(7000), &metrics);
  transport::TransportEndpoint cend(cshim, endpoint_params(9000), &metrics);
  transport::SockTransport dtrans(dend), ctrans(cend);
  transport::ObjectHost host(host_config(scenario, &metrics), dtrans);
  transport::SubjectClient client(
      metered(core::subject_config(scenario), &metrics),
      client_params(scenario), ctrans);

  const double start = transport::steady_now_ms();
  const auto now = [&] { return transport::steady_now_ms() - start; };
  cend.connect(dsock->local_addr(), now());

  std::vector<double> round_ms;
  std::size_t handshakes = 0;
  const std::size_t rounds = grid.wall_rounds * repeat;
  const double wall0 = now();
  for (std::size_t r = 0; r < rounds; ++r) {
    client.begin_round(0, now());
    while (!client.round_done() && now() < wall0 + 120000) {
      host.pump(now());
      client.step(now());
    }
    const transport::ClientReport report = client.finish_round(now());
    cell.ok = cell.ok && report.complete();
    round_ms.push_back(report.round_ms);
    handshakes += report.resolved;
  }
  const double wall_s = (now() - wall0) / 1000.0;
  cell.handshakes_per_s =
      wall_s > 0 ? static_cast<double>(handshakes) / wall_s : 0;
  std::sort(round_ms.begin(), round_ms.end());
  if (!round_ms.empty()) {
    const std::size_t idx = (round_ms.size() * 99 + 99) / 100 - 1;
    cell.p99_round_ms = round_ms[std::min(idx, round_ms.size() - 1)];
  }
  return cell;
}

const char* loss_tag(double loss) {
  if (loss == 0.0) return "loss0";
  if (loss == 0.10) return "loss10";
  return "loss30";
}

int smoke(const bench::Args& args) {
  const Grid grid{6, 2, 2};
  // Clean pipe: complete, and quiet — zero retry-driver retransmits and
  // zero reliable-layer resends.
  const VirtualCell clean = run_virtual(grid, 0.0);
  if (!clean.ok || clean.retransmits != 0 || clean.resends != 0) {
    std::fprintf(stderr,
                 "smoke: clean pipe regressed (ok %d, rtx %llu, resends "
                 "%llu)\n",
                 clean.ok, static_cast<unsigned long long>(clean.retransmits),
                 static_cast<unsigned long long>(clean.resends));
    return 1;
  }
  // Lossy pipe: the shim must have really dropped packets and the
  // reliable layer must still deliver every service.
  const VirtualCell lossy = run_virtual(grid, 0.30);
  if (!lossy.ok || lossy.worst_ratio < 1.0 || lossy.shim_dropped == 0 ||
      lossy.resends == 0) {
    std::fprintf(stderr,
                 "smoke: lossy pipe regressed (ok %d, ratio %.3f, dropped "
                 "%llu, resends %llu)\n",
                 lossy.ok, lossy.worst_ratio,
                 static_cast<unsigned long long>(lossy.shim_dropped),
                 static_cast<unsigned long long>(lossy.resends));
    return 1;
  }
  // Determinism: the lossy cell replays to the same virtual timings and
  // counters — seeded shims + fixed-step clock leave no room for noise.
  const VirtualCell replay = run_virtual(grid, 0.30);
  if (replay.total_round_ms != lossy.total_round_ms ||
      replay.retransmits != lossy.retransmits ||
      replay.resends != lossy.resends ||
      replay.shim_dropped != lossy.shim_dropped) {
    std::fprintf(stderr, "smoke: lossy pipe cell is not deterministic\n");
    return 1;
  }
  // Real sockets: one loopback point at 10% shim loss must complete.
  const WallCell wall = run_wall(grid, 0.10, 1);
  if (!wall.ok) {
    std::fprintf(stderr, "smoke: loopback round at 10%% loss incomplete\n");
    return 1;
  }
  std::printf(
      "smoke OK: clean pipe %zu handshakes quiet; 30%% loss ratio %.3f "
      "(%llu dropped, %llu resends) deterministic; loopback@10%% %.1f hs/s "
      "p99 %.1f ms\n",
      clean.handshakes, lossy.worst_ratio,
      static_cast<unsigned long long>(lossy.shim_dropped),
      static_cast<unsigned long long>(lossy.resends), wall.handshakes_per_s,
      wall.p99_round_ms);

  obs::bench::BenchReporter reporter("transport");
  reporter.set_threads(1);
  reporter.set_repeat(args.repeat);
  reporter.metric("virtual.round_ms_total.loss0", clean.total_round_ms, "ms",
                  "virtual");
  reporter.metric("virtual.round_ms_total.loss30", lossy.total_round_ms, "ms",
                  "virtual");
  reporter.metric("virtual.resends.loss30",
                  static_cast<double>(lossy.resends), "count", "virtual");
  reporter.metric("virtual.delivery_ratio.worst", lossy.worst_ratio, "ratio",
                  "virtual", /*lower_is_better=*/false);
  reporter.metric("wall.handshakes_per_s.loss10", wall.handshakes_per_s,
                  "hs/s", "wall", /*lower_is_better=*/false);
  reporter.metric("wall.round_ms_p99.loss10", wall.p99_round_ms, "ms",
                  "wall");
  return bench::finish_bench(args, reporter, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  if (args.smoke) return smoke(args);

  const Grid grid;
  std::printf("Transport — %zu objects, %zu virtual + %zu loopback rounds "
              "per loss point\n\n",
              grid.objects, grid.rounds, grid.wall_rounds);
  std::printf("%6s | %10s %8s %8s | %12s %10s\n", "loss", "virt ms/rd",
              "rtx", "resends", "hs/s", "p99 ms");
  std::printf("-------+------------------------------+------------------------\n");

  obs::bench::BenchReporter reporter("transport");
  reporter.set_threads(1);
  reporter.set_repeat(args.repeat);
  for (const double loss : kLossPoints) {
    const VirtualCell v = run_virtual(grid, loss);
    const WallCell w = run_wall(grid, loss, args.repeat);
    if (!v.ok || !w.ok || v.worst_ratio < 1.0) {
      std::fprintf(stderr, "incomplete round at %.0f%% loss (ratio %.3f)\n",
                   loss * 100, v.worst_ratio);
      return 1;
    }
    std::printf("%5.0f%% | %10.1f %8llu %8llu | %12.1f %10.1f\n", loss * 100,
                v.total_round_ms / static_cast<double>(grid.rounds),
                static_cast<unsigned long long>(v.retransmits),
                static_cast<unsigned long long>(v.resends),
                w.handshakes_per_s, w.p99_round_ms);
    const std::string tag = loss_tag(loss);
    // Virtual numbers are --repeat invariant (one deterministic pass);
    // wall numbers average over repeats inside run_wall.
    reporter.metric("virtual.round_ms_total." + tag, v.total_round_ms, "ms",
                    "virtual");
    reporter.metric("virtual.retransmits." + tag,
                    static_cast<double>(v.retransmits), "count", "virtual");
    reporter.metric("virtual.resends." + tag, static_cast<double>(v.resends),
                    "count", "virtual");
    reporter.metric("wall.handshakes_per_s." + tag, w.handshakes_per_s,
                    "hs/s", "wall", /*lower_is_better=*/false);
    reporter.metric("wall.round_ms_p99." + tag, w.p99_round_ms, "ms", "wall");
  }
  reporter.metric("virtual.delivery_ratio.worst", 1.0, "ratio", "virtual",
                  /*lower_is_better=*/false);
  return bench::finish_bench(args, reporter, nullptr);
}
