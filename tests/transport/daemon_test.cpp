// In-process daemon round trips: ObjectHost + SubjectClient — the exact
// engine rooms behind argusd/argusctl — driven over the pipe hub with
// loss, over the simulator backend, and over real UDP loopback. The
// lossy pipe run must produce the same engine-level result set as the
// authoritative simulator (core::run_discovery), which is the same
// parity the CI loopback smoke asserts across two processes.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "argus/discovery.hpp"
#include "common/serde.hpp"
#include "fault/netem.hpp"
#include "harness/sweep.hpp"
#include "net/sim.hpp"
#include "obs/metrics.hpp"
#include "transport/client.hpp"
#include "transport/host.hpp"
#include "transport/pipe.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"

namespace argus::transport {
namespace {

core::DiscoveryScenario scenario_for(std::size_t objects, int level = 2,
                                     std::uint64_t seed = 17) {
  harness::SweepPoint point;
  point.level = level;
  point.objects = objects;
  point.seed = seed;
  return harness::make_scenario(point);
}

HostConfig host_config(const core::DiscoveryScenario& scenario,
                       obs::MetricsRegistry* metrics = nullptr) {
  HostConfig cfg;
  cfg.epoch = scenario.epoch;
  cfg.metrics = metrics;
  for (std::size_t i = 0; i < scenario.objects.size(); ++i) {
    core::ObjectEngineConfig ocfg;
    ocfg.version = scenario.version;
    ocfg.creds = scenario.objects[i].creds;
    ocfg.admin_pub = scenario.admin_pub;
    ocfg.strength = scenario.strength;
    ocfg.seed = scenario.seed + 1000 + i;
    ocfg.metrics = metrics;
    cfg.objects.push_back(std::move(ocfg));
  }
  return cfg;
}

core::SubjectEngineConfig subject_config(
    const core::DiscoveryScenario& scenario,
    obs::MetricsRegistry* metrics = nullptr) {
  core::SubjectEngineConfig scfg;
  scfg.version = scenario.version;
  scfg.creds = scenario.subject;
  scfg.admin_pub = scenario.admin_pub;
  scfg.strength = scenario.strength;
  scfg.seed = scenario.seed;
  scfg.seek_level3 = scenario.seek_level3;
  scfg.metrics = metrics;
  return scfg;
}

ClientParams client_params(const core::DiscoveryScenario& scenario) {
  ClientParams params;
  params.expected_objects = scenario.objects.size();
  params.epoch = scenario.epoch;
  params.retry.mode = core::RetryMode::kOn;
  return params;
}

std::set<std::tuple<std::string, int, std::string>> result_set(
    const std::vector<core::DiscoveredService>& services) {
  std::set<std::tuple<std::string, int, std::string>> out;
  for (const auto& s : services) out.emplace(s.object_id, s.level, s.variant_tag);
  return out;
}

/// One daemon + one subject over the pipe hub, with a netem shim on each
/// side, on a hand-stepped virtual clock.
struct PipeDeployment {
  core::DiscoveryScenario scenario;
  PipeHub hub;
  std::unique_ptr<PipeSocket> dsock, csock;
  fault::NetemSocket dshim, cshim;
  obs::MetricsRegistry metrics;
  TransportEndpoint dend, cend;
  SockTransport dtrans, ctrans;
  ObjectHost host;
  SubjectClient client;
  double now = 0;

  PipeDeployment(std::size_t objects, double loss,
                 EndpointParams dparams = daemon_params(),
                 std::string snapshot_path = {})
      : scenario(scenario_for(objects)),
        dsock(hub.open(0)),
        csock(hub.open(0)),
        dshim(*dsock, shim_params(loss, 11)),
        cshim(*csock, shim_params(loss, 12)),
        dend(dshim, dparams, &metrics),
        cend(cshim, client_params_ep(), &metrics),
        dtrans(dend),
        ctrans(cend),
        host(with_snapshot(host_config(scenario, &metrics),
                           std::move(snapshot_path)),
             dtrans),
        client(subject_config(scenario, &metrics), client_params(scenario),
               ctrans) {}

  static fault::NetemParams shim_params(double loss, std::uint64_t seed) {
    fault::NetemParams p;
    p.drop_prob = loss;
    p.seed = seed;
    return p;
  }
  static EndpointParams daemon_params() {
    EndpointParams p;
    p.conn_id_base = 7000;
    return p;
  }
  static EndpointParams client_params_ep() {
    EndpointParams p;
    p.conn_id_base = 9000;
    return p;
  }
  static HostConfig with_snapshot(HostConfig cfg, std::string path) {
    cfg.snapshot_path = std::move(path);
    return cfg;
  }

  ClientReport run_round(std::size_t group, double step_ms = 5,
                         double limit_ms = 60000) {
    cend.connect(dsock->local_addr(), now);
    client.begin_round(group, now);
    const double deadline = now + limit_ms;
    while (!client.round_done() && now < deadline) {
      now += step_ms;
      host.pump(now);
      client.step(now);
    }
    return client.finish_round(now);
  }
};

TEST(Daemon, PipeRoundMatchesSimulatorUnderLoss) {
  PipeDeployment d(20, /*loss=*/0.10);
  const ClientReport report = d.run_round(0);
  EXPECT_TRUE(report.complete())
      << report.resolved << "/" << report.expected;
  EXPECT_DOUBLE_EQ(report.delivery_ratio(), 1.0);
  EXPECT_EQ(report.services.size(), 20u);

  const core::DiscoveryReport sim = core::run_discovery(d.scenario);
  EXPECT_EQ(result_set(sim.services),
            result_set(d.client.engine().discovered()));
  // 10% loss must have made the reliable layer actually work.
  EXPECT_GT(d.dshim.stats().dropped + d.cshim.stats().dropped, 0u);
  EXPECT_EQ(d.dend.stats().decode_failed, 0u);
}

TEST(Daemon, CleanPipeRoundNoRetransmits) {
  PipeDeployment d(10, /*loss=*/0.0);
  const ClientReport report = d.run_round(0);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.que1_retransmits + report.que2_retransmits, 0u);
}

TEST(Daemon, SimTransportBackendParity) {
  // The same engine rooms over the simulator backend: the transport
  // abstraction must not perturb the discovery outcome.
  const core::DiscoveryScenario scenario = scenario_for(12);
  net::Simulator sim;
  net::Network network(sim, net::RadioParams{}, scenario.seed);
  SimTransport ctrans(network, 0);
  SimTransport dtrans(network, 1);
  obs::MetricsRegistry metrics;
  ObjectHost host(host_config(scenario, &metrics), dtrans);
  SubjectClient client(subject_config(scenario, &metrics),
                       client_params(scenario), ctrans);

  double now = 0;
  client.begin_round(0, now);
  while (!client.round_done() && now < 60000) {
    now += 5;
    host.pump(now);
    client.step(now);
  }
  const ClientReport report = client.finish_round(now);
  EXPECT_TRUE(report.complete());
  const core::DiscoveryReport ref = core::run_discovery(scenario);
  EXPECT_EQ(result_set(ref.services),
            result_set(client.engine().discovered()));
}

TEST(Daemon, UdpLoopbackRound) {
  const core::DiscoveryScenario scenario = scenario_for(5);
  auto dsock = UdpSocket::bind_loopback(0);
  auto csock = UdpSocket::bind_loopback(0);
  ASSERT_TRUE(dsock && csock);
  obs::MetricsRegistry metrics;
  TransportEndpoint dend(*dsock, PipeDeployment::daemon_params(), &metrics);
  TransportEndpoint cend(*csock, PipeDeployment::client_params_ep(), &metrics);
  SockTransport dtrans(dend), ctrans(cend);
  ObjectHost host(host_config(scenario, &metrics), dtrans);
  SubjectClient client(subject_config(scenario, &metrics),
                       client_params(scenario), ctrans);

  const double start = steady_now_ms();
  const auto now = [&] { return steady_now_ms() - start; };
  cend.connect(dsock->local_addr(), now());
  client.begin_round(0, now());
  while (!client.round_done() && now() < 30000) {
    host.pump(now());
    client.step(now());
  }
  const ClientReport report = client.finish_round(now());
  EXPECT_TRUE(report.complete())
      << report.resolved << "/" << report.expected;
  EXPECT_EQ(report.services.size(), 5u);
}

TEST(Daemon, ControlStatsRoundTrip) {
  PipeDeployment d(4, /*loss=*/0.0);
  const ClientReport report = d.run_round(0);
  ASSERT_TRUE(report.complete());
  d.client.send_control(d.dsock->local_addr().pack(), CtlOp::kStatsReq, d.now);
  for (int i = 0; i < 100 && !d.client.last_stats().has_value(); ++i) {
    d.now += 5;
    d.host.pump(d.now);
    d.client.step(d.now);
  }
  ASSERT_TRUE(d.client.last_stats().has_value());
  ByteReader r(*d.client.last_stats());
  const std::uint64_t frames_rx = r.u64();
  const std::uint64_t replies_tx = r.u64();
  (void)r.u64();  // open sessions
  EXPECT_GT(frames_rx, 0u);
  EXPECT_GE(replies_tx, 8u);  // RES1 + RES2 per hosted engine
}

TEST(Daemon, ControlShutdownFlagsTheHost) {
  PipeDeployment d(2, /*loss=*/0.0);
  (void)d.run_round(0);
  ASSERT_FALSE(d.host.shutdown_requested());
  d.client.send_control(d.dsock->local_addr().pack(), CtlOp::kShutdown, d.now);
  for (int i = 0; i < 100 && !d.host.shutdown_requested(); ++i) {
    d.now += 5;
    d.host.pump(d.now);
    d.client.step(d.now);
  }
  EXPECT_TRUE(d.host.shutdown_requested());
}

TEST(Daemon, SnapshotRestoreRoundTrip) {
  const std::string path =
      testing::TempDir() + "/argus_daemon_snapshot_test.snap";
  std::remove(path.c_str());

  PipeDeployment d(6, /*loss=*/0.0, PipeDeployment::daemon_params(), path);
  const ClientReport report = d.run_round(0);
  ASSERT_TRUE(report.complete());
  ASSERT_TRUE(d.host.write_snapshot());
  EXPECT_EQ(d.host.stats().snapshots_written, 1u);

  // A fresh fleet with the same configs restores every engine section.
  // Restore is a pure function of (config, blob) — restoring the writer
  // itself from its own file must land both fleets on identical states.
  PipeDeployment fresh(6, /*loss=*/0.0, PipeDeployment::daemon_params(), path);
  EXPECT_EQ(fresh.host.restore_from_file(), persist::RestoreError::kOk);
  EXPECT_EQ(fresh.host.restored_engines(), 6u);
  ASSERT_EQ(d.host.restore_from_file(), persist::RestoreError::kOk);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(fresh.host.engine(i).state_digest(),
              d.host.engine(i).state_digest())
        << "engine " << i;
    EXPECT_GT(fresh.host.engine(i).open_sessions() +
                  fresh.host.engine(i).cached_replies(),
              0u)
        << "engine " << i << " restored blank";
  }
  std::remove(path.c_str());
}

TEST(Daemon, SecondRoundDedupesDiscovered) {
  PipeDeployment d(8, /*loss=*/0.05);
  ASSERT_TRUE(d.run_round(0).complete());
  const std::size_t after_first = d.client.engine().discovered().size();
  ASSERT_TRUE(d.run_round(0).complete());
  EXPECT_EQ(d.client.engine().discovered().size(), after_first);
}

TEST(Daemon, RoundIndexWrapsOverGroupKeys) {
  // argusctl passes round r as the group-key index; a one-key subject
  // reduces it modulo its key count instead of throwing.
  PipeDeployment d(4, /*loss=*/0.0);
  ASSERT_EQ(d.client.engine().group_key_count(), 1u);
  const ClientReport report = d.run_round(5);
  EXPECT_TRUE(report.complete())
      << report.resolved << "/" << report.expected;
}

}  // namespace
}  // namespace argus::transport
