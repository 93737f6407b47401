// daemon_crowd / daemon_level2: real-socket discovery against argusd.
//
//   daemon_crowd   argusd hosts 20 Level-3 objects (full v3.0: double-faced
//                  objects, padded RES2); 4 subject clients on 2
//                  load-generator threads.
//   daemon_level2  the same shape with 20 Level-2 objects: mutual ECDSA
//                  and ECDH, without the Level-3 group proof, the second
//                  face or the RES2 padding.
//
// Both keep the single-threaded daemon saturated. Workloads whose rounds
// are bound by one subject thread (100 Level-1 or Level-2 objects for
// one subject) track the host's fast and slow states too closely to gate;
// see perfbench/README.md.
//
// argusd runs with --no-resume --no-admission. Every loop is closed: a
// client starts its next round only after the previous one settled. The
// generator drives transport::SubjectClient directly, one UDP connection
// and one DRBG seed per client, and always uses group key 0.
//
// End-to-end pass: argusd processes one after another. Each is spawned and
// warmed up (every client connected and one round done: the set-up
// sample), then the clients close and argusd must exit 0 with no live
// connection. Every (kSetupOnly + 1)-th one is also loaded, for its share
// of --seconds, before the clients close; the others are set-up-only
// cycles, so setup_s is a median over many spawns spread across the run.
//
// Traced pass: (A) a real argusd for the daemon's /proc figures, then the
// objects hosted in-process (an ObjectHost over a UdpSocket on its own
// thread, running argusd's pump-and-sleep loop) so both sides' spans land
// in one profile, (B) with the profiler armed and (C) without, for the
// pass's own overhead.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
#include <poll.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "argus/discovery.hpp"
#include "bench.hpp"
#include "harness/sweep.hpp"
#include "transport/client.hpp"
#include "transport/host.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"

namespace perfbench {

namespace {

using argus::obs::prof::Profiler;
namespace tp = argus::transport;

constexpr int kLoadPhases = 6;
constexpr int kSetupOnly = 5;  // set-up-only cycles before each load phase
constexpr std::size_t kMinRounds = 100;
constexpr double kRoundDeadlineMs = 8000;

struct Shape {
  int level = 1;
  std::size_t objects = 0;
  std::size_t clients = 1;
  std::size_t threads = 1;
};

Shape shape_of(const std::string& workload) {
  return {workload == "daemon_crowd" ? 3 : 2, 20, 4, 2};
}

double wall_ms() { return tp::steady_now_ms(); }

// --- argusd process ---------------------------------------------------------

/// A spawned argusd. Its stdout is a pipe: "LISTENING <port>" on start,
/// one JSON stats line on exit.
class Argusd {
 public:
  Argusd(const Options& opt, const Shape& shape) {
    int fds[2];
    if (pipe(fds) != 0) return;
    const std::string objects = std::to_string(shape.objects);
    const std::string level = std::to_string(shape.level);
    const std::string seed = std::to_string(opt.seed);
    pid_ = fork();
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execl(opt.argusd.c_str(), "argusd", "--port", "0", "--objects",
            objects.c_str(), "--level", level.c_str(), "--seed", seed.c_str(),
            "--no-admission", "--no-resume", "--quiet",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    fd_ = fds[0];
    if (pid_ < 0) return;
    const std::string line = read_line(60000);
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "LISTENING %u", &port) == 1) {
      port_ = static_cast<std::uint16_t>(port);
    }
  }

  ~Argusd() {
    if (pid_ > 0 && !reaped_) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (fd_ >= 0) close(fd_);
  }
  Argusd(const Argusd&) = delete;
  Argusd& operator=(const Argusd&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// SIGTERM, then wait for the stats line and the exit. True iff argusd
  /// exited 0 and reported no live connection.
  bool stop() {
    if (pid_ <= 0) return false;
    kill(pid_, SIGTERM);
    const std::string stats = read_line(20000);
    int status = 0;
    const double until = wall_ms() + 20000;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (wall_ms() > until) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      usleep(1000);
    }
    reaped_ = true;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
           stats.find("\"conns_live\":0,") != std::string::npos;
  }

 private:
  std::string read_line(int timeout_ms) {
    std::string line;
    const double until = wall_ms() + timeout_ms;
    while (wall_ms() < until) {
      pollfd p{fd_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char c = 0;
      if (read(fd_, &c, 1) != 1) break;
      if (c == '\n') return line;
      line += c;
    }
    return line;
  }

  int pid_ = -1;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  bool reaped_ = false;
};

// --- subject clients --------------------------------------------------------

struct Client {
  std::unique_ptr<tp::UdpSocket> socket;
  argus::obs::MetricsRegistry metrics;
  std::unique_ptr<tp::TransportEndpoint> endpoint;
  std::unique_ptr<tp::SockTransport> transport;
  std::unique_ptr<tp::SubjectClient> client;
  tp::NetAddr daemon;
  bool running = false;
};

std::unique_ptr<Client> make_client(const argus::core::DiscoveryScenario& sc,
                                    tp::NetAddr daemon, std::uint64_t drbg_seed) {
  auto c = std::make_unique<Client>();
  c->socket = tp::UdpSocket::bind_loopback(0);
  if (!c->socket) return nullptr;
  tp::EndpointParams ep;
  ep.conn_id_base = static_cast<std::uint32_t>(getpid() ^ (drbg_seed * 2654435761u)) | 1u;
  c->endpoint = std::make_unique<tp::TransportEndpoint>(*c->socket, ep, &c->metrics);
  c->transport = std::make_unique<tp::SockTransport>(*c->endpoint);

  argus::core::SubjectEngineConfig scfg;
  scfg.version = sc.version;
  scfg.creds = sc.subject;
  scfg.admin_pub = sc.admin_pub;
  scfg.strength = sc.strength;
  scfg.seed = drbg_seed;  // distinct real subjects draw distinct nonces
  scfg.seek_level3 = sc.seek_level3;
  scfg.resumption.enabled = false;
  scfg.metrics = &c->metrics;

  tp::ClientParams params;
  params.expected_objects = sc.objects.size();
  params.epoch = sc.epoch;
  params.retry.mode = argus::core::RetryMode::kOn;
  params.retry.round_deadline_ms = kRoundDeadlineMs;
  params.metrics = &c->metrics;
  c->client = std::make_unique<tp::SubjectClient>(std::move(scfg), params, *c->transport);
  c->daemon = daemon;
  c->endpoint->connect(daemon, wall_ms());
  return c;
}

/// What one generator thread saw.
struct Tally {
  std::vector<double> round_ms;
  std::uint64_t attempted = 0;
  std::uint64_t resolved = 0;
  std::uint64_t rejects = 0;
  double busy_step_us = 0;  // steps that moved packets (traced pass)
  double idle_step_us = 0;  // empty polls (traced pass)
  double slept_us = 0;      // sleeps between empty polls (traced pass)
  double wall_us = 0;

  void merge(const Tally& o) {
    round_ms.insert(round_ms.end(), o.round_ms.begin(), o.round_ms.end());
    attempted += o.attempted;
    resolved += o.resolved;
    rejects += o.rejects;
    busy_step_us += o.busy_step_us;
    idle_step_us += o.idle_step_us;
    slept_us += o.slept_us;
    wall_us += o.wall_us;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return std::min(attempted, attempted - resolved + rejects);
  }
};

std::uint64_t packets(const Client& c) {
  const auto& s = c.endpoint->stats();
  return s.rx_packets + s.tx_packets;
}

/// Closed loop over `clients` until `stop_ms`: each client's next round
/// starts as soon as its last one settled; rounds running at `stop_ms`
/// finish. Between polls that moved no packet the generator sleeps 50 us.
void drive(const std::vector<Client*>& clients, double stop_ms, bool timed_steps,
           Tally* tally) {
  const double t0 = wall_ms();
  for (Client* c : clients) {
    c->client->begin_round(0, wall_ms());
    c->running = true;
  }
  std::size_t running = clients.size();
  while (running > 0) {
    bool moved = false;
    for (Client* c : clients) {
      if (!c->running) continue;
      const std::uint64_t before = packets(*c);
      const std::uint64_t s0 = argus::obs::prof::now_ns();
      if (timed_steps) {
        ARGUS_PROF_SCOPE("bench.client_step");
        c->client->step(wall_ms());
      } else {
        c->client->step(wall_ms());
      }
      const bool busy = packets(*c) != before;
      moved |= busy;
      if (timed_steps) {
        const double us = static_cast<double>(argus::obs::prof::now_ns() - s0) / 1e3;
        (busy ? tally->busy_step_us : tally->idle_step_us) += us;
      }
      if (!c->client->round_done()) continue;
      const double now = wall_ms();
      const tp::ClientReport rep = c->client->finish_round(now);
      tally->round_ms.push_back(rep.round_ms);
      tally->attempted += rep.expected;
      tally->resolved += rep.resolved;
      tally->rejects += rep.rejects;
      if (now < stop_ms) {
        c->client->begin_round(0, now);
      } else {
        c->running = false;
        running--;
      }
    }
    // Nothing arrived for any client: yield the core briefly instead of
    // spinning, so the generator does not slow a daemon that shares the
    // physical core with it.
    if (!moved) {
      const std::uint64_t s0 = argus::obs::prof::now_ns();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      if (timed_steps) {
        tally->slept_us += static_cast<double>(argus::obs::prof::now_ns() - s0) / 1e3;
      }
    }
  }
  tally->wall_us = (wall_ms() - t0) * 1e3;
}

/// Client-side reliable-layer counters, summed.
struct LinkCounts {
  std::uint64_t packets = 0, acks = 0, resends = 0, out_of_order = 0, congested = 0;
  LinkCounts operator-(const LinkCounts& o) const {
    return {packets - o.packets, acks - o.acks, resends - o.resends,
            out_of_order - o.out_of_order, congested - o.congested};
  }
};

LinkCounts add_conn(LinkCounts l, const tp::ReliableConn* conn) {
  if (conn == nullptr) return l;
  const auto& s = conn->stats();
  l.acks += s.acks_sent;
  l.resends += s.resends;
  l.out_of_order += s.out_of_order_rx;
  l.congested += s.congested;
  return l;
}

LinkCounts client_links(const std::vector<std::unique_ptr<Client>>& clients) {
  LinkCounts l;
  for (const auto& c : clients) {
    l.packets += packets(*c);
    l = add_conn(l, c->endpoint->conn(c->daemon));
  }
  return l;
}

/// One daemon instance's worth of load: clients connect and warm up (one
/// round each, the set-up sample ends here), then `threads` generator
/// threads run the closed loop for `measure_s`.
struct Phase {
  std::vector<std::unique_ptr<Client>> clients;
  double setup_s = 0;
  Tally warmup;
  Tally load;
  LinkCounts links;       // client-side, over the measured phase
  double gen_wall_s = 0;  // wall of the measured phase
};

bool connect_and_warm(const argus::core::DiscoveryScenario& sc, const Shape& shape,
                      tp::NetAddr daemon, std::uint64_t seed_base, Phase* ph) {
  for (std::size_t k = 0; k < shape.clients; ++k) {
    auto c = make_client(sc, daemon, seed_base + k);
    if (!c) return false;
    ph->clients.push_back(std::move(c));
  }
  std::vector<Client*> all;
  for (auto& c : ph->clients) all.push_back(c.get());
  drive(all, 0, false, &ph->warmup);
  return ph->warmup.failed() == 0;
}

void run_load(const Shape& shape, double measure_s, bool traced, Profiler* prof,
              Phase* ph) {
  const LinkCounts before = client_links(ph->clients);
  std::vector<Tally> tallies(shape.threads);
  std::vector<std::thread> threads;
  const double t0 = wall_ms();
  const double stop = t0 + measure_s * 1e3;
  for (std::size_t g = 0; g < shape.threads; ++g) {
    std::vector<Client*> mine;
    for (std::size_t k = g; k < ph->clients.size(); k += shape.threads) {
      mine.push_back(ph->clients[k].get());
    }
    threads.emplace_back([mine, stop, traced, prof, g, &tallies] {
      std::unique_ptr<Profiler::Attach> lane;
      if (traced) lane = std::make_unique<Profiler::Attach>(*prof, 2 + g);
      drive(mine, stop, traced, &tallies[g]);
    });
  }
  for (auto& t : threads) t.join();
  ph->gen_wall_s = (wall_ms() - t0) / 1e3;
  for (const auto& t : tallies) ph->load.merge(t);
  ph->links = client_links(ph->clients) - before;
}

/// Every client discovered exactly what the simulator discovers on the
/// same scenario.
bool parity(const Phase& ph, const ResultSet& expected) {
  for (const auto& c : ph.clients) {
    if (result_set(c->client->engine().discovered()) != expected) return false;
  }
  return true;
}

void close_clients(Phase* ph) {
  for (auto& c : ph->clients) c->endpoint->close_all(wall_ms());
}

// --- in-process host (traced pass) ------------------------------------------

/// argusd's engine room on a thread of this process: the same HostConfig,
/// the same pump-then-sleep-1ms loop. The host thread owns every host
/// object; it snapshots engine and link counters itself when the
/// measured window opens and closes.
class InProcHost {
 public:
  struct Window {
    std::uint64_t que2 = 0, rejects = 0, sheds = 0;
    LinkCounts links;
    Window operator-(const Window& o) const {
      return {que2 - o.que2, rejects - o.rejects, sheds - o.sheds, links - o.links};
    }
  };

  InProcHost(const argus::core::DiscoveryScenario& sc, Profiler* prof)
      : prof_(prof) {
    socket_ = tp::UdpSocket::bind_loopback(0);
    if (!socket_) throw std::runtime_error("perfbench: loopback bind failed");
    tp::EndpointParams ep;  // argusd defaults
    ep.reliable.keepalive_idle_ms = 1500;
    ep.reliable.keepalive_timeout_ms = 6000;
    ep.reliable.half_open_timeout_ms = 6000;
    ep.conn_id_base = static_cast<std::uint32_t>(getpid()) * 40503u | 1u;
    endpoint_ = std::make_unique<tp::TransportEndpoint>(*socket_, ep, &metrics_);
    transport_ = std::make_unique<tp::SockTransport>(*endpoint_);
    tp::HostConfig cfg;
    cfg.epoch = sc.epoch;
    cfg.metrics = &metrics_;
    for (std::size_t i = 0; i < sc.objects.size(); ++i) {
      argus::core::ObjectEngineConfig ocfg;
      ocfg.version = sc.version;
      ocfg.creds = sc.objects[i].creds;
      ocfg.admin_pub = sc.admin_pub;
      ocfg.strength = sc.strength;
      ocfg.seed = sc.seed + 1000 + i;
      ocfg.admission.enabled = false;
      ocfg.resumption.enabled = false;
      ocfg.metrics = &metrics_;
      cfg.objects.push_back(std::move(ocfg));
    }
    host_ = std::make_unique<tp::ObjectHost>(std::move(cfg), *transport_);
    start_ = wall_ms();
    thread_ = std::thread([this] { loop(); });
  }

  ~InProcHost() { halt(); }
  InProcHost(const InProcHost&) = delete;
  InProcHost& operator=(const InProcHost&) = delete;

  [[nodiscard]] tp::NetAddr addr() const { return endpoint_->local_addr(); }

  void arm(bool on) {
    armed_.store(on);
    while (window_open_ != on) std::this_thread::yield();
  }

  /// Stop the loop thread; the host is then owned by the caller.
  void halt() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }

  /// After halt(): pump until every client's FIN retired its connection.
  bool drain() {
    const double until = wall_ms() + 3000;
    while (endpoint_->live_conns() > 0 && wall_ms() < until) {
      host_->pump(wall_ms() - start_);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return endpoint_->live_conns() == 0;
  }

  Window window;          // counters over the armed window
  double busy_us = 0;     // armed wall outside the 1 ms sleeps
  double wall_us = 0;     // armed wall

 private:
  Window snapshot() const {
    Window w;
    for (std::size_t i = 0; i < host_->engine_count(); ++i) {
      const auto& s = host_->engine(i).stats();
      w.que2 += s.que2_handled;
      w.rejects += s.rejects;
      w.sheds += s.shed_overload + s.rate_limited;
    }
    for (const auto& peer : endpoint_->live_peers()) {
      w.links = add_conn(w.links, endpoint_->conn(peer));
    }
    return w;
  }

  void loop() {
    std::unique_ptr<Profiler::Attach> lane;
    Window opened;
    double opened_ms = 0, slept_us = 0;
    while (!stop_.load()) {
      const bool armed = armed_.load();
      if (armed != window_open_) {
        if (armed) {
          if (prof_ != nullptr) lane = std::make_unique<Profiler::Attach>(*prof_, 1);
          opened = snapshot();
          opened_ms = wall_ms();
          slept_us = 0;
        } else {
          lane.reset();
          window = snapshot() - opened;
          wall_us = (wall_ms() - opened_ms) * 1e3;
          busy_us = wall_us - slept_us;
        }
        window_open_ = armed;
      }
      {
        ARGUS_PROF_SCOPE("bench.host_pump");
        host_->pump(wall_ms() - start_);
      }
      const double s0 = wall_ms();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      slept_us += (wall_ms() - s0) * 1e3;
    }
  }

  Profiler* prof_;
  argus::obs::MetricsRegistry metrics_;
  std::unique_ptr<tp::UdpSocket> socket_;
  std::unique_ptr<tp::TransportEndpoint> endpoint_;
  std::unique_ptr<tp::SockTransport> transport_;
  std::unique_ptr<tp::ObjectHost> host_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> armed_{false};
  std::atomic<bool> window_open_{false};
  double start_ = 0;
  std::thread thread_;  // last: runs loop(), which uses every member above
};

// --- passes -----------------------------------------------------------------

struct Prepared {
  Shape shape;
  argus::core::DiscoveryScenario scenario;
  ResultSet expected;
  std::uint64_t sim_messages = 0;  // the simulator run's radio messages
  std::size_t sim_found = 0;       // and the services it discovered
};

Prepared prepare(const Options& opt, Profiler* prof) {
  Prepared p;
  p.shape = shape_of(opt.workload);
  argus::harness::SweepPoint point;
  point.level = p.shape.level;
  point.objects = p.shape.objects;
  point.seed = opt.seed;
  std::unique_ptr<Profiler::Attach> lane;
  if (prof != nullptr) lane = std::make_unique<Profiler::Attach>(*prof, 0);
  {
    ARGUS_PROF_SCOPE("bench.provision");
    p.scenario = argus::harness::make_scenario(point);
  }
  // Reference result set from the authoritative simulator, outside any
  // timed phase (argusctl --compare-sim's check). The traced pass takes
  // the net layer's figures from this run.
  ARGUS_PROF_SCOPE("bench.discover");
  const argus::core::DiscoveryReport sim = argus::core::run_discovery(p.scenario);
  p.expected = result_set(sim.services);
  p.sim_messages = sim.net_stats.messages;
  p.sim_found = sim.services.size();
  return p;
}

/// One argusd lifetime: spawn, connect and warm up (set-up), load for
/// `measure_s` (not at all for 0), close, stop. Fills `ph` and the argusd
/// /proc deltas.
struct DaemonRun {
  double cpu_s = 0;
  std::uint64_t ctx_switches = 0;
  double hwm_mb = 0;
  bool clean_exit = false;
  bool started = false;
  bool cpu_read = true;  // argusd's CPU clock could be read
};

DaemonRun run_argusd(const Options& opt, const Prepared& p, double measure_s,
                     std::uint64_t seed_base, Phase* ph) {
  DaemonRun dr;
  const double t0 = now_s();
  Argusd d(opt, p.shape);
  if (d.port() == 0) return dr;
  dr.started = connect_and_warm(p.scenario, p.shape, tp::loopback(d.port()),
                                seed_base, ph);
  ph->setup_s = now_s() - t0;
  if (!dr.started) return dr;
  if (measure_s > 0) {
    const std::optional<double> cpu0 = process_cpu_s(d.pid());
    const ProcStatus st0 = read_status(d.pid());
    run_load(p.shape, measure_s, false, nullptr, ph);
    const ProcStatus st1 = read_status(d.pid());
    const std::optional<double> cpu1 = process_cpu_s(d.pid());
    dr.cpu_read = cpu0 && cpu1;
    dr.cpu_s = dr.cpu_read ? *cpu1 - *cpu0 : 0;
    dr.ctx_switches = st1.ctx_switches - st0.ctx_switches;
    dr.hwm_mb = st1.hwm_mb;
  }
  close_clients(ph);
  dr.clean_exit = d.stop();
  return dr;
}

std::uint64_t drbg_seed_base(const Options& opt, int instance) {
  return opt.seed * 1'000'003ull + 7919ull * static_cast<std::uint64_t>(instance + 1);
}

Result end_to_end(const Options& opt) {
  Result res;
  const Prepared p = prepare(opt, nullptr);
  std::vector<double> setup_s;
  Tally load;
  double wall_s = 0, cpu_s = 0, hwm_mb = 0;
  bool warm_ok = true, exits_clean = true, parity_ok = true, cpu_read = true;
  int instance = 0;
  for (int phase = 0; phase < kLoadPhases && warm_ok; ++phase) {
    for (int k = 0; k <= kSetupOnly && warm_ok; ++k) {
      const bool loaded = k == kSetupOnly;
      Phase ph;
      const DaemonRun dr = run_argusd(opt, p, loaded ? opt.seconds / kLoadPhases : 0,
                                      drbg_seed_base(opt, instance++), &ph);
      warm_ok &= dr.started;
      exits_clean &= dr.clean_exit;
      cpu_read &= dr.cpu_read;
      res.attempted += ph.warmup.attempted;
      res.failed += ph.warmup.failed();
      if (!dr.started) break;
      parity_ok &= parity(ph, p.expected);
      setup_s.push_back(ph.setup_s);
      if (!loaded) continue;
      load.merge(ph.load);
      wall_s += ph.gen_wall_s;
      cpu_s += dr.cpu_s;
      hwm_mb = std::max(hwm_mb, dr.hwm_mb);
    }
  }
  const double hs = static_cast<double>(load.resolved);
  res.set("setup_s", median(setup_s), "s");
  res.set("hs_per_s", wall_s > 0 ? hs / wall_s : 0, "1/s");
  // Round times are bimodal on a shared box (a fast and a slow state, for
  // seconds to minutes at a time). The mean moves in proportion to the share of
  // rounds in each state; a percentile jumps from one mode to the other
  // when that share crosses it. So the mean is gated and the percentiles
  // are shown.
  res.set("round_mean_ms", mean(load.round_ms), "ms");
  res.info["round_p50_ms"] = Metric{median(load.round_ms), "ms"};
  res.info["round_p90_ms"] = Metric{percentile(load.round_ms, 90), "ms"};
  res.set("cpu_us_per_hs", hs > 0 ? cpu_s / hs * 1e6 : 0, "us");
  res.set("rss_mb", hwm_mb, "MB");
  res.attempted += load.attempted;
  res.failed += load.failed();
  res.checks["daemon.warmup_round_complete"] = warm_ok;
  res.checks["daemon.matches_simulator"] = parity_ok;
  res.checks["daemon.argusd_exit_clean"] = exits_clean;
  res.checks["daemon.argusd_cpu_clock_read"] = cpu_read;
  res.checks["daemon.at_least_100_rounds"] = load.round_ms.size() >= kMinRounds;
  res.info["rounds"] = Metric{static_cast<double>(load.round_ms.size()), "count"};
  res.info["setups"] = Metric{static_cast<double>(setup_s.size()), "count"};
  return res;
}

Result traced(const Options& opt) {
  Result res;
  Profiler setup_prof({.max_events_per_lane = 1u << 12});
  const Prepared p = prepare(opt, &setup_prof);
  const auto setup_paths = setup_prof.by_path();
  provision_layers(setup_paths, static_cast<double>(p.shape.objects), &res);
  const SpanTotals events = span_totals(setup_paths, "sim.dispatch", "bench.discover");
  res.set("net.events_per_discovery", static_cast<double>(events.count), "count");
  res.set("net.ns_per_event",
          events.count ? events.self_us * 1e3 / static_cast<double>(events.count) : 0,
          "ns");
  res.set("net.messages_per_hs",
          static_cast<double>(p.sim_messages) / static_cast<double>(p.sim_found),
          "count");
  const double third = opt.seconds / 3;

  // (A) Real argusd: how busy the daemon process is, and how often it
  // switches context, per handshake.
  Phase real;
  const DaemonRun dr = run_argusd(opt, p, third, drbg_seed_base(opt, 0), &real);
  bool ok = dr.started && dr.clean_exit && dr.cpu_read && parity(real, p.expected);
  const double real_hs = static_cast<double>(real.load.resolved);
  res.set("daemon.cpu_share", real.gen_wall_s > 0 ? dr.cpu_s / real.gen_wall_s : 0,
          "ratio");
  res.set("daemon.round_p90_ms", percentile(real.load.round_ms, 90), "ms");
  res.set("daemon.ctx_switches_per_hs",
          real_hs > 0 ? static_cast<double>(dr.ctx_switches) / real_hs : 0, "count");

  // (B) traced and (C) untraced, against the in-process host.
  Profiler prof({.max_events_per_lane = 1u << 12});
  double hs_traced = 0, hs_untraced = 0;
  Tally traced_load;
  LinkCounts links;
  InProcHost::Window host_window;
  double host_busy_us = 0, gen_wall_s = 0;
  for (int armed = 1; armed >= 0; --armed) {
    InProcHost host(p.scenario, armed ? &prof : nullptr);
    Phase ph;
    ok &= connect_and_warm(p.scenario, p.shape, host.addr(),
                           drbg_seed_base(opt, 1 + armed), &ph);
    host.arm(true);
    run_load(p.shape, third, armed != 0, &prof, &ph);
    host.arm(false);
    host.halt();
    ok &= parity(ph, p.expected);
    close_clients(&ph);
    ok &= host.drain();
    const double hs = static_cast<double>(ph.load.resolved) / ph.gen_wall_s;
    if (armed) {
      hs_traced = hs;
      traced_load = ph.load;
      links = ph.links;
      host_window = host.window;
      host_busy_us = host.busy_us;
      gen_wall_s = ph.gen_wall_s;
    } else {
      hs_untraced = hs;
    }
    res.attempted += ph.load.attempted;
    res.failed += ph.load.failed();
  }
  res.attempted += real.load.attempted;
  res.failed += real.load.failed();

  const auto by_path = prof.by_path();
  const double hs = static_cast<double>(traced_load.resolved);
  const double rounds = static_cast<double>(traced_load.round_ms.size());
  crypto_and_engine_layers(by_path, hs, &res);

  const double subject_us = span_totals(by_path, "subject.").incl_us;
  const double object_us = span_totals(by_path, "object.").incl_us;
  // begin_round's subject.* spans run outside bench.client_step; subtract
  // only the subject work inside the steps.
  const double step_subject_us =
      span_totals(by_path, "subject.", "bench.client_step").incl_us;
  res.set("transport.client_us_per_round",
          (traced_load.busy_step_us - step_subject_us) / rounds, "us");
  res.set("transport.client_wait_us_per_round", traced_load.idle_step_us / rounds, "us");
  res.set("transport.host_us_per_hs",
          (span_totals(by_path, "bench.host_pump").incl_us - object_us) / hs, "us");
  res.set("transport.packets_per_hs", static_cast<double>(links.packets) / hs, "count");
  res.set("transport.acks_per_hs", static_cast<double>(links.acks) / hs, "count");
  const LinkCounts& hl = host_window.links;
  res.set("transport.resends", static_cast<double>(links.resends + hl.resends), "count");
  res.set("transport.out_of_order",
          static_cast<double>(links.out_of_order + hl.out_of_order), "count");
  res.set("transport.congested", static_cast<double>(links.congested + hl.congested),
          "count");

  // QUE2s per object-side verification batch; a QUE2 handled on its own
  // is a batch of one.
  const std::uint64_t lone_que2 =
      span_totals(by_path, "object.handle_que2").count -
      span_totals(by_path, "object.handle_que2", "object.handle_batch").count;
  const double batch_count =
      static_cast<double>(span_totals(by_path, "object.handle_batch").count + lone_que2);
  res.set("argus.que2_per_batch",
          batch_count > 0 ? static_cast<double>(host_window.que2) / batch_count : 0,
          "count");
  res.set("argus.rejects",
          static_cast<double>(host_window.rejects + traced_load.rejects), "count");
  res.set("argus.sheds", static_cast<double>(host_window.sheds), "count");
  res.set("gen.busy_share",
          subject_us / 1e6 / (gen_wall_s * static_cast<double>(p.shape.threads)), "ratio");
  res.set("trace.overhead_pct", (1.0 - hs_traced / hs_untraced) * 100.0, "%");
  res.set("trace.coverage",
          top_level_coverage(prof, traced_load.wall_us - traced_load.slept_us + host_busy_us),
          "ratio");

  res.checks["daemon.traced_pass_clean"] = ok;
  res.checks["daemon.no_rejects_or_sheds"] =
      host_window.rejects == 0 && host_window.sheds == 0;
  return res;
}

}  // namespace

Result run_daemon(const Options& opt) {
  return opt.trace ? traced(opt) : end_to_end(opt);
}

}  // namespace perfbench
