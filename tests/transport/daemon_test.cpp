// In-process daemon round trips: ObjectHost + SubjectClient — the exact
// engine rooms behind argusd/argusctl — driven over the pipe hub with
// loss and over real UDP loopback. The lossy pipe run must produce the
// same engine-level result set as the authoritative simulator
// (core::run_discovery), which is the same parity the CI loopback smoke
// asserts across two processes.
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
#include "obs/trace.hpp"
#include "persist/snapshot.hpp"
#include "obs/metrics.hpp"
#include "transport/client.hpp"
#include "transport/host.hpp"
#include "transport/mux.hpp"
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

/// `cfg` reporting into `metrics`.
template <typename Config>
Config metered(Config cfg, obs::MetricsRegistry* metrics) {
  cfg.metrics = metrics;
  return cfg;
}

HostConfig host_config(const core::DiscoveryScenario& scenario,
                       obs::MetricsRegistry* metrics = nullptr) {
  HostConfig cfg;
  cfg.epoch = scenario.epoch;
  cfg.metrics = metrics;
  for (std::size_t i = 0; i < scenario.objects.size(); ++i) {
    cfg.objects.push_back(metered(core::object_config(scenario, i), metrics));
  }
  return cfg;
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
        client(metered(core::subject_config(scenario), &metrics),
               client_params(scenario), ctrans) {}

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
  SubjectClient client(metered(core::subject_config(scenario), &metrics),
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

TEST(Daemon, CrowdOfClientsSharesOneHostAndLeavesNoConnection) {
  // The shape of the daemon_crowd benchmark workload: one host with 20
  // Level-3 objects, four subjects with distinct DRBG seeds, two rounds
  // each, then every client closes and the host must drain to an empty
  // table without dialing anyone back.
  const core::DiscoveryScenario scenario = scenario_for(20, /*level=*/3);
  PipeHub hub;
  obs::MetricsRegistry metrics;
  auto dsock = hub.open(0);
  TransportEndpoint dend(*dsock, PipeDeployment::daemon_params(), &metrics);
  SockTransport dtrans(dend);
  ObjectHost host(host_config(scenario, &metrics), dtrans);

  struct Client {
    std::unique_ptr<PipeSocket> sock;
    std::unique_ptr<TransportEndpoint> end;
    std::unique_ptr<SockTransport> trans;
    std::unique_ptr<SubjectClient> client;
  };
  std::vector<Client> clients(4);
  double now = 0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    Client& c = clients[i];
    EndpointParams ep;
    ep.conn_id_base = 9000 + 100 * static_cast<std::uint32_t>(i);
    core::SubjectEngineConfig scfg = core::subject_config(scenario);
    scfg.seed = scenario.seed + 1 + i;
    c.sock = hub.open(0);
    c.end = std::make_unique<TransportEndpoint>(*c.sock, ep);
    c.trans = std::make_unique<SockTransport>(*c.end);
    c.client = std::make_unique<SubjectClient>(
        std::move(scfg), client_params(scenario), *c.trans);
    c.end->connect(dsock->local_addr(), now);
  }

  const auto expected = result_set(core::run_discovery(scenario).services);
  for (std::size_t round = 0; round < 2; ++round) {
    for (Client& c : clients) c.client->begin_round(round, now);
    const double limit = now + 60000;
    const auto all_done = [&] {
      for (const Client& c : clients) {
        if (!c.client->round_done()) return false;
      }
      return true;
    };
    while (!all_done() && now < limit) {
      now += 5;
      host.pump(now);
      for (Client& c : clients) c.client->step(now);
    }
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const ClientReport report = clients[i].client->finish_round(now);
      EXPECT_TRUE(report.complete())
          << "client " << i << " round " << round << ": " << report.resolved
          << "/" << report.expected;
      EXPECT_EQ(result_set(report.services), expected) << "client " << i;
    }
  }
  for (std::size_t i = 0; i < host.engine_count(); ++i) {
    const auto& st = host.engine(i).stats();
    EXPECT_EQ(st.rejects, 0u) << "object " << i;
    EXPECT_EQ(st.shed_overload + st.rate_limited, 0u) << "object " << i;
  }

  for (Client& c : clients) c.end->close_all(now);
  const double drain_until = now + ReliableParams{}.keepalive_timeout_ms;
  while (dend.live_conns() > 0 && now < drain_until) {
    now += 5;
    host.pump(now);
  }
  EXPECT_EQ(dend.live_conns(), 0u);
  EXPECT_EQ(dend.stats().opened, 0u);
}

TEST(Daemon, HostAndTestbedBuildTheSameObjectSections) {
  // Both drivers build their engines through core::object_config, so a
  // fresh host and a fresh simulated fleet of one scenario snapshot to
  // byte-identical "object:<id>" sections.
  const core::DiscoveryScenario scenario = scenario_for(6, /*level=*/3);
  const std::string path =
      testing::TempDir() + "/argus_daemon_testbed_bundle.snap";
  std::remove(path.c_str());
  PipeHub hub;
  auto dsock = hub.open(0);
  TransportEndpoint dend(*dsock, PipeDeployment::daemon_params());
  SockTransport dtrans(dend);
  ObjectHost host(PipeDeployment::with_snapshot(host_config(scenario), path),
                  dtrans);
  core::DiscoveryTestbed testbed(scenario);

  const auto hosted = persist::open_bundle(host.fleet_bundle());
  const auto simulated = persist::open_bundle(testbed.fleet_bundle());
  ASSERT_TRUE(hosted && simulated);
  ASSERT_EQ(simulated.entries.size(), scenario.objects.size() + 1);
  EXPECT_EQ(simulated.entries.front().first, "subject");
  const persist::BundleEntries simulated_objects(simulated.entries.begin() + 1,
                                                 simulated.entries.end());
  EXPECT_EQ(hosted.entries, simulated_objects);
  for (std::size_t i = 0; i < scenario.objects.size(); ++i) {
    EXPECT_EQ(hosted.entries[i].first,
              core::object_section(scenario.objects[i].creds.id));
  }

  // A simulated fleet's bundle, after a round, restores every hosted
  // engine; its "subject" section is ignored.
  testbed.run_round(0);
  ASSERT_TRUE(persist::write_snapshot_file(path, testbed.fleet_bundle()));
  EXPECT_EQ(host.restore_from_file(), persist::RestoreError::kOk);
  EXPECT_EQ(host.restored_engines(), scenario.objects.size());
  for (std::size_t i = 0; i < host.engine_count(); ++i) {
    EXPECT_GT(host.engine(i).cached_replies(), 0u) << "engine " << i;
  }
  std::remove(path.c_str());
}

TEST(Daemon, HostTracesMalformedQue2AsReject) {
  const core::DiscoveryScenario scenario = scenario_for(2);
  PipeHub hub;
  auto dsock = hub.open(0);
  auto csock = hub.open(0);
  TransportEndpoint dend(*dsock, PipeDeployment::daemon_params());
  TransportEndpoint cend(*csock, PipeDeployment::client_params_ep());
  SockTransport dtrans(dend), ctrans(cend);
  obs::Tracer tracer;
  HostConfig cfg = host_config(scenario);
  cfg.tracer = &tracer;
  ObjectHost host(std::move(cfg), dtrans);

  Bytes junk(64, 0xA5);
  junk[0] = static_cast<std::uint8_t>(core::MsgType::kQue2);
  double now = 0;
  cend.connect(dsock->local_addr(), now);
  ctrans.send(dsock->local_addr().pack(), encode_mux(1, junk), now);
  for (int i = 0; i < 100 && host.engine(1).stats().rejects == 0; ++i) {
    now += 5;
    ctrans.pump(now);
    host.pump(now);
  }
  ASSERT_EQ(host.engine(1).stats().rejects, 1u);
  std::size_t rejects = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (!ev.name.starts_with("reject.")) continue;
    ++rejects;
    EXPECT_EQ(ev.node, 2u);  // channel 1 traces on lane 2
    EXPECT_EQ(ev.a, junk.size());
  }
  EXPECT_EQ(rejects, 1u);
}

}  // namespace
}  // namespace argus::transport
