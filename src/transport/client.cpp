#include "transport/client.hpp"

#include <algorithm>
#include <utility>

namespace argus::transport {

SubjectClient::SubjectClient(core::SubjectEngineConfig cfg,
                             ClientParams params, SockTransport& transport)
    : engine_(std::move(cfg)),
      params_(params),
      transport_(transport),
      round_(params.retry, /*retries=*/true, params.expected_objects, *this),
      peers_(params.expected_objects) {
  transport_.set_handler(
      [this](PeerId from, const Bytes& frame) { on_frame(from, frame); });
}

void SubjectClient::begin_round(std::size_t group_idx, double now_ms) {
  round_active_ = true;
  now_ms_ = now_ms;
  round_start_ms_ = now_ms;
  rejects_ = 0;
  round_.begin(engine_, group_idx);
}

void SubjectClient::step(double now_ms) {
  now_ms_ = now_ms;
  transport_.pump(now_ms);  // frames land in on_frame during this call
  if (!round_active_) return;

  if (now_ms >= round_start_ms_ + params_.retry.round_deadline_ms) {
    round_.finish();
    round_active_ = false;
    return;
  }

  // Fire every due timer, earliest deadline first, ties in arm order.
  for (;;) {
    const auto due = std::ranges::min_element(timers_, {}, &Timer::due_ms);
    if (due == timers_.end() || due->due_ms > now_ms) break;
    const std::size_t slot = due->slot;
    timers_.erase(due);
    round_.on_timer(slot);
  }

  if (round_.settled()) round_active_ = false;
}

ClientReport SubjectClient::finish_round(double now_ms) {
  round_.finish();
  round_active_ = false;
  ClientReport report;
  report.expected = round_.exchanges().size();
  for (const auto& ex : round_.exchanges()) {
    report.resolved += ex.phase == core::SubjectRound::Phase::kDone ? 1 : 0;
  }
  report.round_ms = now_ms - round_start_ms_;
  report.que1_retransmits = round_.que1_retransmits();
  report.que2_retransmits = round_.que2_retransmits();
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
  if (mux->channel >= peers_.size()) {
    count("client.bad_channel");
    return;
  }
  const std::size_t c = mux->channel;
  const auto result = engine_.handle(mux->payload, params_.epoch);
  (void)engine_.take_consumed_ms();
  if (core::is_reject(result.status)) {
    rejects_++;
    count("client.rejects");
  }
  round_.on_handled(c, result);
  if (result) {
    // RES1 answered with a QUE2 (fresh or cached duplicate): unicast it
    // back on the same channel; retransmits go to the same peer.
    peers_[c] = from;
    transport_.send(from, encode_mux(static_cast<std::uint32_t>(c), *result),
                    now_ms_);
  }
}

void SubjectClient::send_que1(const Bytes& wire) {
  transport_.broadcast(encode_mux(kMuxBroadcast, wire), now_ms_);
}

void SubjectClient::resend_que2(std::size_t exchange, const Bytes& wire) {
  transport_.send(peers_[exchange],
                  encode_mux(static_cast<std::uint32_t>(exchange), wire),
                  now_ms_);
}

void SubjectClient::arm_timer(std::size_t slot, double delay_ms) {
  timers_.push_back(Timer{now_ms_ + delay_ms, slot});
}

void SubjectClient::cancel_timer(std::size_t slot) {
  std::erase_if(timers_, [slot](const Timer& t) { return t.slot == slot; });
}

void SubjectClient::count(const char* name) {
  if (params_.metrics != nullptr) params_.metrics->counter(name).inc();
}

}  // namespace argus::transport
