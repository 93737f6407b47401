// Subject-side discovery client: one SubjectEngine driven over a
// SockTransport by the shared retry discipline (core::SubjectRound).
//
// argusctl's engine room, shared with the in-process transport tests.
// One round = broadcast QUE1 on the mux broadcast channel, then a
// QUE2/RES2 exchange per responding channel. Backoff, budgets and the
// settle rule are SubjectRound's — the same code the simulator's subject
// runs — so a dead daemon or a lossy path degrades to a reported
// timeout, never a hang. The client keeps only the I/O: mux channels,
// the round deadline, and a deadline list that step() fires in
// (deadline, arm order).
//
// The caller owns the drive loop:
//
//   client.begin_round(group_idx, now);
//   while (!client.round_done()) { client.step(now); now = ...; }
//   auto report = client.finish_round(now);
//
// The caller also dials the daemon (TransportEndpoint::connect) before
// the first round: the client only rides an existing connection.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "argus/subject_engine.hpp"
#include "argus/subject_round.hpp"
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
  std::size_t resolved = 0;  // channels that completed an exchange
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

class SubjectClient final : core::SubjectRound::Io {
 public:
  SubjectClient(core::SubjectEngineConfig cfg, ClientParams params,
                SockTransport& transport);

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
  struct Timer {
    double due_ms = 0;
    std::size_t slot = 0;
  };

  void on_frame(PeerId from, const Bytes& frame);
  void send_que1(const Bytes& wire) override;
  void resend_que2(std::size_t exchange, const Bytes& wire) override;
  void arm_timer(std::size_t slot, double delay_ms) override;
  void cancel_timer(std::size_t slot) override;
  void count(const char* name);

  core::SubjectEngine engine_;
  ClientParams params_;
  SockTransport& transport_;
  core::SubjectRound round_;
  std::vector<PeerId> peers_;  // per channel: who answered RES1
  std::vector<Timer> timers_;  // live timers in arm order

  bool round_active_ = false;
  double now_ms_ = 0;
  double round_start_ms_ = 0;
  std::uint64_t rejects_ = 0;  // this round
  std::optional<Bytes> last_stats_;
};

}  // namespace argus::transport
