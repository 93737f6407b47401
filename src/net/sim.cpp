#include "net/sim.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace argus::net {

void Simulator::schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0) throw std::invalid_argument("Simulator: negative delay");
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(SimTime when, std::function<void()> fn) {
  if (when < now_) throw std::invalid_argument("Simulator: time in the past");
  push(when, std::move(fn), 0);
}

TimerId Simulator::schedule_timer(SimTime delay, std::function<void()> fn) {
  if (delay < 0) throw std::invalid_argument("Simulator: negative delay");
  return schedule_timer_at(now_ + delay, std::move(fn));
}

TimerId Simulator::schedule_timer_at(SimTime when, std::function<void()> fn) {
  if (when < now_) throw std::invalid_argument("Simulator: time in the past");
  const TimerId id = next_timer_++;
  live_timers_.insert(id);
  push(when, std::move(fn), id);
  return id;
}

void Simulator::push(SimTime when, std::function<void()> fn, TimerId timer) {
  events_.push_back(Event{when, next_seq_++, std::move(fn), timer});
  std::push_heap(events_.begin(), events_.end(), later);
}

bool Simulator::cancel_timer(TimerId id) {
  if (live_timers_.erase(id) == 0) return false;
  // The event is still in the queue (its live entry is erased on pop),
  // so this cancel created exactly one tombstone.
  ++dead_;
  maybe_compact();
  return true;
}

void Simulator::maybe_compact() {
  if (dead_ * 2 <= events_.size()) return;
  std::erase_if(events_, [this](const Event& ev) {
    return ev.timer != 0 && !live_timers_.contains(ev.timer);
  });
  std::make_heap(events_.begin(), events_.end(), later);
  dead_ = 0;
}

void Simulator::prune() {
  while (!events_.empty()) {
    const Event& top = events_.front();
    if (top.timer == 0 || live_timers_.contains(top.timer)) return;
    // Cancelled: drop without firing or advancing time.
    std::pop_heap(events_.begin(), events_.end(), later);
    events_.pop_back();
    --dead_;
  }
}

SimTime Simulator::dispatch(SimTime deadline, bool advance) {
  if (tracer_) tracer_->begin(now_, 0, "sim.run", "sim", pending());
  const std::uint64_t before = executed_;
  for (prune(); !events_.empty() && events_.front().time <= deadline;
       prune()) {
    std::pop_heap(events_.begin(), events_.end(), later);
    Event ev = std::move(events_.back());
    events_.pop_back();
    if (ev.timer != 0) live_timers_.erase(ev.timer);
    now_ = ev.time;
    ++executed_;
    {
      ARGUS_PROF_SCOPE("sim.dispatch");
      ev.fn();
    }
  }
  if (advance) now_ = std::max(now_, deadline);
  if (tracer_) tracer_->end(now_, 0, executed_ - before);
  return now_;
}

SimTime Simulator::run() {
  return dispatch(std::numeric_limits<SimTime>::infinity(), false);
}

SimTime Simulator::run_until(SimTime deadline) {
  return dispatch(deadline, true);
}

SimTime Simulator::drain_until(SimTime deadline) {
  return dispatch(deadline, false);
}

}  // namespace argus::net
