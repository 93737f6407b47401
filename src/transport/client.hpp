// Subject-side discovery client: one SubjectEngine driven over a
// Transport with the PR-2 retry policy.
//
// argusctl's engine room, shared with the in-process transport tests.
// One round = broadcast QUE1 on the mux broadcast channel, then a
// QUE2/RES2 exchange per responding channel, with the subject-side
// recovery discipline of the simulator's retry driver: re-broadcast QUE1
// while responders are missing, retransmit QUE2 per channel, exponential
// backoff on both, capped budgets, and a hard round deadline — so a dead
// daemon or a lossy path degrades to a reported timeout, never a hang.
//
// The caller owns the drive loop:
//
//   client.begin_round(group_idx, now);
//   while (!client.round_done()) { client.step(now); now = ...; }
//   auto report = client.finish_round(now);
//
// which works unchanged over SimTransport (fixed-step virtual clock) and
// SockTransport (wall clock).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "argus/discovery.hpp"
#include "argus/subject_engine.hpp"
#include "obs/metrics.hpp"
#include "transport/mux.hpp"
#include "transport/transport.hpp"

namespace argus::transport {

struct ClientParams {
  /// Channels (hosted engines) a round expects answers from.
  std::size_t expected_objects = 0;
  /// Wall-clock epoch for certificate validity (matches the daemon's).
  std::uint64_t epoch = 0;
  core::RetryPolicy retry{};
  obs::MetricsRegistry* metrics = nullptr;
};

struct ClientReport {
  std::size_t expected = 0;
  std::size_t resolved = 0;   // channels that completed an exchange
  std::size_t timed_out = 0;  // channels that exhausted their budget
  double round_ms = 0;
  std::uint64_t que1_retransmits = 0;
  std::uint64_t que2_retransmits = 0;
  std::uint64_t rejects = 0;
  std::vector<core::DiscoveredService> services;

  [[nodiscard]] double delivery_ratio() const {
    return expected == 0
               ? 1.0
               : static_cast<double>(resolved) / static_cast<double>(expected);
  }
  [[nodiscard]] bool complete() const { return resolved == expected; }
};

class SubjectClient {
 public:
  SubjectClient(core::SubjectEngineConfig cfg, ClientParams params,
                Transport& transport);

  /// Start a round with group key `group_idx` modulo the subject's key
  /// count (round r of a multi-round run passes r).
  void begin_round(std::size_t group_idx, double now_ms);
  /// Pump the transport and fire retry/deadline timers.
  void step(double now_ms);
  [[nodiscard]] bool round_done() const { return !round_active_; }
  ClientReport finish_round(double now_ms);

  /// Fire-and-forget control frame to `to` (shutdown, snapshot, stats).
  void send_control(PeerId to, CtlOp op, double now_ms);
  /// Body of the last kStatsResp seen, if any.
  [[nodiscard]] const std::optional<Bytes>& last_stats() const {
    return last_stats_;
  }

  [[nodiscard]] const core::SubjectEngine& engine() const { return engine_; }

 private:
  enum class Phase : std::uint8_t {
    kAwaitRes1 = 0,  // QUE1 out, nothing from this channel yet
    kAwaitRes2,      // QUE2 out, waiting for the sealed profile
    kDone,
    kTimedOut,
  };

  struct Exchange {
    Phase phase = Phase::kAwaitRes1;
    PeerId peer = 0;  // who answered RES1 (QUE2 retransmit target)
    Bytes que2_wire;
    unsigned attempts = 0;       // QUE2 sends so far
    double deadline_ms = 0;      // next QUE2 retransmit
    double timeout_ms = 0;       // current backoff interval
  };

  void on_frame(PeerId from, const Bytes& frame);
  void broadcast_que1(double now_ms);
  void resolve(std::size_t channel);
  [[nodiscard]] bool all_settled() const;
  void count(const char* name);

  core::SubjectEngine engine_;
  ClientParams params_;
  Transport& transport_;

  bool round_active_ = false;
  double now_ms_ = 0;
  double round_start_ms_ = 0;
  double round_deadline_ms_ = 0;
  Bytes que1_wire_;
  unsigned que1_attempts_ = 0;
  double que1_deadline_ms_ = 0;
  double que1_timeout_ms_ = 0;
  std::vector<Exchange> exchanges_;
  std::size_t discovered_seen_ = 0;
  std::uint64_t que1_retx_ = 0;
  std::uint64_t que2_retx_ = 0;
  std::uint64_t rejects_ = 0;
  std::optional<Bytes> last_stats_;
};

}  // namespace argus::transport
