#include "argus/subject_round.hpp"

namespace argus::core {

SubjectRound::SubjectRound(RetryPolicy policy, bool retries,
                           std::size_t exchanges, Io& io)
    : policy_(policy), retries_(retries), io_(io), exchanges_(exchanges) {}

void SubjectRound::begin(SubjectEngine& engine, std::size_t group_idx) {
  engine.set_group_key_index(group_idx % engine.group_key_count());
  que1_wire_ = engine.start_round();
  (void)engine.take_consumed_ms();
  que1_attempts_ = 0;
  que1_retx_ = 0;
  que2_retx_ = 0;
  for (Exchange& ex : exchanges_) {
    ex.phase = Phase::kAwaitRes1;
    ex.que2_attempts = 0;
    ex.que2_wire.clear();
  }
  send_que1();
}

void SubjectRound::on_handled(std::size_t exchange,
                              const HandleResult& result) {
  Exchange& ex = exchanges_[exchange];
  if (is_reject(result.status)) {
    ++ex.rejects;
  } else if (result) {
    if (ex.phase != Phase::kAwaitRes1) return;  // a cached QUE2 resend
    ex.phase = Phase::kAwaitRes2;
    ex.que2_wire = *result;
    arm(exchange, policy_.que2_timeout_ms, 0);
  } else if (result.status == HandleStatus::kOk ||
             result.status == HandleStatus::kDuplicate) {
    settle(exchange);
  }
}

void SubjectRound::on_timer(std::size_t slot) {
  if (slot == que1_slot()) {
    if (!awaiting_res1()) return;
    ++que1_attempts_;
    ++que1_retx_;
    send_que1();  // same bytes: receivers treat the duplicate idempotently
    return;
  }
  Exchange& ex = exchanges_[slot];
  if (ex.phase != Phase::kAwaitRes2) return;
  if (ex.que2_attempts >= policy_.max_retries) {
    ex.phase = Phase::kTimedOut;
    if (settled()) cancel_all();
    return;
  }
  ++ex.que2_attempts;
  ++ex.retransmits;
  ++que2_retx_;
  io_.resend_que2(slot, ex.que2_wire);
  arm(slot, policy_.que2_timeout_ms, ex.que2_attempts);
}

void SubjectRound::finish() {
  cancel_all();
  for (Exchange& ex : exchanges_) {
    if (ex.pending()) ex.phase = Phase::kTimedOut;
  }
}

bool SubjectRound::awaiting_res1() const {
  return std::ranges::any_of(exchanges_, [](const Exchange& ex) {
    return ex.phase == Phase::kAwaitRes1;
  });
}

void SubjectRound::send_que1() {
  io_.send_que1(que1_wire_);
  if (que1_attempts_ < policy_.max_retries && awaiting_res1()) {
    arm(que1_slot(), policy_.que1_timeout_ms, que1_attempts_);
  }
}

void SubjectRound::arm(std::size_t slot, double base_ms, unsigned attempt) {
  if (!retries_) return;
  for (unsigned i = 0; i < attempt; ++i) base_ms *= policy_.backoff;
  io_.arm_timer(slot, base_ms);
}

/// Stop the exchange's timer and, once nothing is pending, every timer,
/// so the round ends at its true completion time.
void SubjectRound::settle(std::size_t exchange) {
  exchanges_[exchange].phase = Phase::kDone;
  io_.cancel_timer(exchange);
  if (settled()) cancel_all();
}

void SubjectRound::cancel_all() {
  io_.cancel_timer(que1_slot());
  for (std::size_t i = 0; i < exchanges_.size(); ++i) io_.cancel_timer(i);
}

}  // namespace argus::core
