// Discrete-event simulator kernel.
//
// Virtual time is in milliseconds (double). Events fire in (time, seq)
// order, so same-time events preserve scheduling order and runs are fully
// deterministic — a requirement for reproducing the paper's discovery
// timelines and for the indistinguishability analyses, where timing IS the
// observable.
//
// The event store is one binary min-heap on exact (time, seq). seq is
// unique, so the extraction order is a total order that no heap layout
// can change.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

namespace argus::obs {
class Tracer;
}

namespace argus::net {

using SimTime = double;  // virtual milliseconds

/// Handle for a cancellable timer; 0 is never a valid id.
using TimerId = std::uint64_t;

class Simulator {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` ms from now (delay >= 0).
  void schedule(SimTime delay, std::function<void()> fn);
  /// Schedule at an absolute virtual time (>= now).
  void schedule_at(SimTime when, std::function<void()> fn);

  /// Schedule a cancellable callback `delay` ms from now. A cancelled
  /// timer's slot is skipped on pop without firing, advancing the clock,
  /// or counting toward executed().
  TimerId schedule_timer(SimTime delay, std::function<void()> fn);
  /// Cancellable callback at an absolute virtual time (>= now). The
  /// absolute form exists so callers can hit an exact stored deadline
  /// (e.g. a node's busy_until) without a now+delta float round trip.
  TimerId schedule_timer_at(SimTime when, std::function<void()> fn);
  /// Cancel a pending timer. Returns false if it already fired (or was
  /// already cancelled); cancelling is idempotent either way. The queue
  /// slot becomes a tombstone, discarded lazily on pop — but tombstones
  /// are counted exactly, and when they outnumber live events the queue
  /// is compacted in one pass, so cancel-heavy runs (retry storms) can't
  /// accumulate unbounded dead entries.
  bool cancel_timer(TimerId id);

  /// Run until the event queue drains. Returns the final virtual time.
  SimTime run();
  /// Run until `deadline` (events after it stay queued).
  SimTime run_until(SimTime deadline);
  /// Like run(), but stop before any event later than `deadline`; unlike
  /// run_until the clock is NOT forced forward to the deadline, so the
  /// return value is the time of the last event actually fired.
  SimTime drain_until(SimTime deadline);

  /// Live (uncancelled) events still queued. Exact: cancelled timers
  /// awaiting lazy discard are not counted.
  [[nodiscard]] std::size_t pending() const { return events_.size() - dead_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Attach an event tracer (null detaches). With no tracer the only
  /// overhead is one pointer test per run()/run_until() call — never
  /// per event.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    TimerId timer = 0;  // 0: plain event; else cancellable
  };

  /// Heap comparator: "a fires later than b", on exact (time, seq).
  static bool later(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  void push(SimTime when, std::function<void()> fn, TimerId timer);
  /// Pop and fire events up to `deadline`; with `advance`, then move the
  /// clock forward to the deadline (run_until).
  SimTime dispatch(SimTime deadline, bool advance);
  /// Discard cancelled timers sitting at the head of the queue, so the
  /// heap top is live. Skipped slots do not advance the clock or count
  /// as executed.
  void prune();
  /// One-pass removal of all tombstones once they exceed the live count.
  void maybe_compact();

  std::vector<Event> events_;  // binary min-heap under later()
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  TimerId next_timer_ = 1;
  std::size_t dead_ = 0;  // cancelled timers still occupying queue slots
  std::unordered_set<TimerId> live_timers_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace argus::net
