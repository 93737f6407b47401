// Subject-side retry discipline of one discovery round, shared by the
// simulator's SubjectNode (argus/discovery.cpp) and the daemon client
// (transport/client.hpp).
//
// One Exchange per expected object advances QUE1-sent -> (RES1 seen,
// QUE2 sent) -> done; an exhausted QUE2 budget or the owner's round
// deadline (finish()) parks it at kTimedOut. While any exchange awaits
// its RES1 the QUE1 is re-broadcast, and each QUE2 is retransmitted per
// exchange, both with exponential backoff and a capped budget. Engines
// answer the duplicates this creates with cached byte-identical resends,
// so retransmission never desynchronizes a session.
//
// Settle rule: a terminal frame (no reply) handled with kOk or kDuplicate
// settles its exchange, so re-discovering a service already known from
// an earlier round settles it too. The QUE2 a duplicate RES1 makes the
// engine resend does not re-arm the exchange's timer.
//
// The round owns policy, its owner the I/O: the owner passes every
// handled frame to on_handled() before sending the engine's reply
// itself, and implements Io, calling on_timer(slot) when an armed slot
// fires.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "argus/subject_engine.hpp"

namespace argus::core {

/// When subject-side retransmission is active.
enum class RetryMode {
  kAuto,  // retries iff the radio is lossy (drop_prob or dup_prob > 0)
  kOn,
  kOff,
};

/// Subject-side recovery under loss (see SubjectRound); the whole round
/// also has a hard deadline, which the round's owner enforces.
struct RetryPolicy {
  RetryMode mode = RetryMode::kAuto;
  unsigned max_retries = 3;          // per exchange (and per-round QUE1)
  double que1_timeout_ms = 600.0;    // before the first QUE1 re-broadcast
  double que2_timeout_ms = 400.0;    // before a per-object QUE2 resend
  double backoff = 2.0;              // timeout multiplier per attempt
  double round_deadline_ms = 8000.0; // hard cap on one round's duration
};

class SubjectRound {
 public:
  /// Timer slots: exchange i's QUE2 timer is slot i, the QUE1 watchdog
  /// is slot que1_slot().
  class Io {
   public:
    virtual ~Io() = default;
    virtual void send_que1(const Bytes& wire) = 0;
    virtual void resend_que2(std::size_t exchange, const Bytes& wire) = 0;
    /// Call on_timer(slot) after `delay_ms`.
    virtual void arm_timer(std::size_t slot, double delay_ms) = 0;
    /// Drop the slot's timer; a no-op if it fired or was never armed.
    virtual void cancel_timer(std::size_t slot) = 0;
  };

  enum class Phase : std::uint8_t {
    kIdle,
    kAwaitRes1,
    kAwaitRes2,
    kDone,
    kTimedOut
  };

  struct Exchange {
    Phase phase = Phase::kIdle;
    unsigned que2_attempts = 0;  // this round
    unsigned retransmits = 0;    // timer-driven QUE2 resends, all rounds
    unsigned rejects = 0;        // peer bytes the engine rejected, all rounds
    Bytes que2_wire;             // cached wire for timer-driven resends

    [[nodiscard]] bool pending() const {
      return phase == Phase::kAwaitRes1 || phase == Phase::kAwaitRes2;
    }
  };

  /// With `retries` false no timer is ever armed. A round is bound to
  /// its owner's timer slots, so it is neither copied nor moved.
  SubjectRound(RetryPolicy policy, bool retries, std::size_t exchanges,
               Io& io);
  SubjectRound(const SubjectRound&) = delete;
  SubjectRound& operator=(const SubjectRound&) = delete;

  /// Start `engine`'s round with group key `group_idx` modulo its key
  /// count; every exchange awaits its RES1 and the QUE1 goes out. The
  /// previous round, if any, must have been finish()ed.
  void begin(SubjectEngine& engine, std::size_t group_idx);
  /// The engine handled a frame of `exchange`; call before sending the
  /// reply, since a first QUE2 arms the exchange's timer.
  void on_handled(std::size_t exchange, const HandleResult& result);
  void on_timer(std::size_t slot);
  /// Cancel every timer and park unresolved exchanges at kTimedOut.
  void finish();

  /// No exchange awaits a RES1 or a RES2.
  [[nodiscard]] bool settled() const {
    return std::ranges::none_of(exchanges_, &Exchange::pending);
  }
  [[nodiscard]] std::size_t que1_slot() const { return exchanges_.size(); }
  [[nodiscard]] const std::vector<Exchange>& exchanges() const {
    return exchanges_;
  }
  /// Timer-driven resends in the current round.
  [[nodiscard]] std::uint64_t que1_retransmits() const { return que1_retx_; }
  [[nodiscard]] std::uint64_t que2_retransmits() const { return que2_retx_; }

 private:
  [[nodiscard]] bool awaiting_res1() const;
  void send_que1();
  void arm(std::size_t slot, double base_ms, unsigned attempt);
  void settle(std::size_t exchange);
  void cancel_all();

  RetryPolicy policy_;
  bool retries_;
  Io& io_;
  Bytes que1_wire_;
  unsigned que1_attempts_ = 0;
  std::uint64_t que1_retx_ = 0;
  std::uint64_t que2_retx_ = 0;
  std::vector<Exchange> exchanges_;
};

}  // namespace argus::core
