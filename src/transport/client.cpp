#include "transport/client.hpp"

#include <utility>

namespace argus::transport {

SubjectClient::SubjectClient(core::SubjectEngineConfig cfg,
                             ClientParams params, Transport& transport)
    : engine_(std::move(cfg)), params_(params), transport_(transport) {
  transport_.set_handler(
      [this](PeerId from, const Bytes& frame) { on_frame(from, frame); });
}

void SubjectClient::begin_round(std::size_t group_idx, double now_ms) {
  // Round r uses group key r mod count, as the simulator's round driver
  // does, so any caller-supplied round count is valid.
  engine_.set_group_key_index(group_idx % engine_.group_key_count());
  que1_wire_ = engine_.start_round();
  (void)engine_.take_consumed_ms();
  discovered_seen_ = engine_.discovered().size();
  exchanges_.assign(params_.expected_objects, Exchange{});
  round_active_ = true;
  now_ms_ = now_ms;
  round_start_ms_ = now_ms;
  round_deadline_ms_ = now_ms + params_.retry.round_deadline_ms;
  que1_attempts_ = 0;
  que1_timeout_ms_ = params_.retry.que1_timeout_ms;
  que1_retx_ = 0;
  que2_retx_ = 0;
  rejects_ = 0;
  broadcast_que1(now_ms);
}

void SubjectClient::step(double now_ms) {
  now_ms_ = now_ms;
  transport_.pump(now_ms);  // frames land in on_frame during this call
  if (!round_active_) return;

  if (now_ms >= round_deadline_ms_) {
    for (auto& ex : exchanges_) {
      if (ex.phase == Phase::kAwaitRes1 || ex.phase == Phase::kAwaitRes2) {
        ex.phase = Phase::kTimedOut;
      }
    }
    round_active_ = false;
    return;
  }

  // QUE1 re-broadcast while any channel has yet to answer at all.
  bool any_awaiting_res1 = false;
  for (const auto& ex : exchanges_) {
    any_awaiting_res1 |= ex.phase == Phase::kAwaitRes1;
  }
  if (any_awaiting_res1 && now_ms >= que1_deadline_ms_ &&
      que1_attempts_ <= params_.retry.max_retries) {
    que1_retx_++;
    count("client.que1_retransmit");
    broadcast_que1(now_ms);
  }

  // Per-channel QUE2 retransmits with exponential backoff.
  for (std::size_t c = 0; c < exchanges_.size(); ++c) {
    Exchange& ex = exchanges_[c];
    if (ex.phase != Phase::kAwaitRes2 || now_ms < ex.deadline_ms) continue;
    if (ex.attempts > params_.retry.max_retries) {
      ex.phase = Phase::kTimedOut;
      continue;
    }
    que2_retx_++;
    count("client.que2_retransmit");
    ex.attempts++;
    ex.timeout_ms *= params_.retry.backoff;
    ex.deadline_ms = now_ms + ex.timeout_ms;
    transport_.send(ex.peer,
                    encode_mux(static_cast<std::uint32_t>(c), ex.que2_wire),
                    now_ms);
  }

  if (all_settled()) round_active_ = false;
}

ClientReport SubjectClient::finish_round(double now_ms) {
  round_active_ = false;
  ClientReport report;
  report.expected = exchanges_.size();
  for (const auto& ex : exchanges_) {
    report.resolved += ex.phase == Phase::kDone ? 1 : 0;
    report.timed_out += ex.phase == Phase::kTimedOut ? 1 : 0;
  }
  report.round_ms = now_ms - round_start_ms_;
  report.que1_retransmits = que1_retx_;
  report.que2_retransmits = que2_retx_;
  report.rejects = rejects_;
  report.services = engine_.discovered();
  return report;
}

void SubjectClient::send_control(PeerId to, CtlOp op, double now_ms) {
  transport_.send(to, encode_mux(kMuxControl, encode_ctl(op)), now_ms);
}

void SubjectClient::on_frame(PeerId from, const Bytes& frame) {
  const auto mux = decode_mux(frame);
  if (!mux) {
    count("client.mux_decode_failed");
    return;
  }
  if (mux->channel == kMuxControl) {
    if (const auto ctl = decode_ctl(mux->payload);
        ctl && ctl->first == CtlOp::kStatsResp) {
      last_stats_ = ctl->second;
    }
    return;
  }
  if (mux->channel >= exchanges_.size()) {
    count("client.bad_channel");
    return;
  }
  const std::size_t c = mux->channel;
  Exchange& ex = exchanges_[c];
  const auto result = engine_.handle(mux->payload, params_.epoch);
  (void)engine_.take_consumed_ms();
  if (core::is_reject(result.status)) {
    rejects_++;
    count("client.rejects");
    return;
  }
  if (result) {
    // RES1 answered with a QUE2 (fresh or cached duplicate): unicast it
    // back on the same channel and arm this exchange's retransmit timer.
    ex.peer = from;
    ex.que2_wire = *result;
    if (ex.phase == Phase::kAwaitRes1) {
      ex.phase = Phase::kAwaitRes2;
      ex.attempts = 0;
      ex.timeout_ms = params_.retry.que2_timeout_ms;
    }
    ex.attempts++;
    ex.deadline_ms = now_ms_ + ex.timeout_ms;
    transport_.send(from, encode_mux(static_cast<std::uint32_t>(c), *result),
                    now_ms_);
    return;
  }
  // Terminal frames (RES1-L1, RES2): a handled success settles the
  // channel — including re-discovery of a service already known from an
  // earlier round, which the engine dedupes without growing
  // discovered().
  if (result.status == core::HandleStatus::kOk ||
      result.status == core::HandleStatus::kDuplicate) {
    discovered_seen_ = engine_.discovered().size();
    resolve(c);
  }
}

void SubjectClient::broadcast_que1(double now_ms) {
  que1_attempts_++;
  que1_timeout_ms_ =
      que1_attempts_ == 1
          ? params_.retry.que1_timeout_ms
          : que1_timeout_ms_ * params_.retry.backoff;
  que1_deadline_ms_ = now_ms + que1_timeout_ms_;
  transport_.broadcast(encode_mux(kMuxBroadcast, que1_wire_), now_ms);
}

void SubjectClient::resolve(std::size_t channel) {
  exchanges_[channel].phase = Phase::kDone;
}

bool SubjectClient::all_settled() const {
  for (const auto& ex : exchanges_) {
    if (ex.phase == Phase::kAwaitRes1 || ex.phase == Phase::kAwaitRes2) {
      return false;
    }
  }
  return true;
}

void SubjectClient::count(const char* name) {
  if (params_.metrics != nullptr) params_.metrics->counter(name).inc();
}

}  // namespace argus::transport
