#include "transport/reliable.hpp"

#include <algorithm>
#include <utility>

namespace argus::transport {

const char* dead_reason_name(DeadReason r) {
  switch (r) {
    case DeadReason::kNone: return "none";
    case DeadReason::kSynTimeout: return "syn_timeout";
    case DeadReason::kRetryExhausted: return "retry_exhausted";
    case DeadReason::kKeepaliveTimeout: return "keepalive_timeout";
    case DeadReason::kHalfOpenTimeout: return "half_open_timeout";
  }
  return "?";
}

ReliableConn::ReliableConn(std::uint32_t conn_id, bool initiator,
                           const ReliableParams& params, double now_ms)
    : conn_id_(conn_id),
      initiator_(initiator),
      params_(params),
      state_(initiator ? ConnState::kSynSent : ConnState::kSynReceived),
      born_ms_(now_ms),
      last_recv_ms_(now_ms),
      last_send_ms_(now_ms) {
  if (initiator_) {
    emit(Packet{PacketType::kSyn, conn_id_, 0, 0, 0, {}});
    syn_rto_ms_ = params_.rto_initial_ms;
    next_syn_ms_ = now_ms + syn_rto_ms_;
    syn_attempts_ = 1;
  }
}

SendStatus ReliableConn::send(Bytes frame, double now_ms) {
  if (defunct()) return SendStatus::kClosed;
  if (established() && in_flight_.size() < params_.window) {
    const std::uint32_t seq = next_seq_++;
    stats_.frames_sent++;
    send_data(seq, frame, now_ms, nullptr);
    in_flight_.emplace(seq,
                       InFlight{std::move(frame), now_ms + params_.rto_initial_ms,
                                params_.rto_initial_ms, 1});
    return SendStatus::kQueued;
  }
  if (send_queue_.size() >= params_.send_queue_cap) {
    stats_.congested++;
    return SendStatus::kCongested;
  }
  stats_.frames_sent++;
  send_queue_.push_back(std::move(frame));
  return SendStatus::kQueued;
}

void ReliableConn::on_packet(const Packet& p, double now_ms) {
  if (state_ == ConnState::kDead) return;
  last_recv_ms_ = now_ms;
  switch (p.type) {
    case PacketType::kSyn:
      // Dup SYNs (our SYN-ACK was lost) re-trigger the SYN-ACK; a SYN on
      // a dialing connection is a simultaneous open — accept it.
      emit(Packet{PacketType::kSynAck, conn_id_, 0, cum_recv_, sack_bits(), {}});
      if (state_ == ConnState::kSynSent) establish(now_ms);
      return;
    case PacketType::kSynAck:
      if (state_ == ConnState::kSynSent) {
        establish(now_ms);
        // Confirm so the passive side leaves kSynReceived even if no DATA
        // follows immediately; a lost ACK degrades to the first keep-alive.
        emit_ack();
      }
      return;
    case PacketType::kData:
      if (state_ == ConnState::kSynReceived) establish(now_ms);
      on_ack(p.ack, p.sack, now_ms);
      on_data(p, now_ms);
      return;
    case PacketType::kAck:
      if (state_ == ConnState::kSynReceived) establish(now_ms);
      on_ack(p.ack, p.sack, now_ms);
      return;
    case PacketType::kPing:
      if (state_ == ConnState::kSynReceived) establish(now_ms);
      emit(Packet{PacketType::kPong, conn_id_, 0, cum_recv_, sack_bits(), {}});
      return;
    case PacketType::kPong:
      on_ack(p.ack, p.sack, now_ms);
      return;
    case PacketType::kFin:
      state_ = ConnState::kClosed;
      in_flight_.clear();
      send_queue_.clear();
      return;
  }
}

void ReliableConn::tick(double now_ms) {
  switch (state_) {
    case ConnState::kSynSent:
      if (now_ms >= next_syn_ms_) {
        if (syn_attempts_ > params_.syn_max_retries) {
          die(DeadReason::kSynTimeout);
          return;
        }
        emit(Packet{PacketType::kSyn, conn_id_, 0, 0, 0, {}});
        syn_attempts_++;
        syn_rto_ms_ = std::min(syn_rto_ms_ * params_.rto_backoff,
                               params_.rto_max_ms);
        next_syn_ms_ = now_ms + syn_rto_ms_;
      }
      return;
    case ConnState::kSynReceived:
      if (now_ms - born_ms_ >= params_.half_open_timeout_ms) {
        die(DeadReason::kHalfOpenTimeout);
      }
      return;
    case ConnState::kEstablished:
      break;
    case ConnState::kClosed:
    case ConnState::kDead:
      return;
  }

  // Retransmit expired in-flight frames with per-frame backoff.
  for (auto& [seq, slot] : in_flight_) {
    if (now_ms < slot.next_resend_ms) continue;
    if (slot.attempts > params_.max_resend) {
      die(DeadReason::kRetryExhausted);
      return;
    }
    send_data(seq, slot.frame, now_ms, &slot);
    stats_.resends++;
  }

  // Keep-alive: probe an idle peer, declare it dead past the timeout.
  const double silent_ms = now_ms - last_recv_ms_;
  if (silent_ms >= params_.keepalive_timeout_ms) {
    die(DeadReason::kKeepaliveTimeout);
    return;
  }
  if (silent_ms >= params_.keepalive_idle_ms &&
      now_ms - last_ping_ms_ >= params_.keepalive_idle_ms) {
    emit(Packet{PacketType::kPing, conn_id_, 0, cum_recv_, sack_bits(), {}});
    stats_.pings++;
    last_ping_ms_ = now_ms;
  }
}

void ReliableConn::close(double now_ms) {
  (void)now_ms;
  if (defunct()) return;
  emit(Packet{PacketType::kFin, conn_id_, 0, cum_recv_, sack_bits(), {}});
  state_ = ConnState::kClosed;
  in_flight_.clear();
  send_queue_.clear();
}

std::vector<Bytes> ReliableConn::take_outgoing() {
  return std::exchange(outgoing_, {});
}

std::vector<Bytes> ReliableConn::take_delivered() {
  return std::exchange(delivered_, {});
}

void ReliableConn::emit(Packet p) {
  p.conn = conn_id_;
  outgoing_.push_back(encode_packet(p));
  stats_.packets_sent++;
}

void ReliableConn::emit_ack() {
  emit(Packet{PacketType::kAck, conn_id_, 0, cum_recv_, sack_bits(), {}});
  stats_.acks_sent++;
}

void ReliableConn::establish(double now_ms) {
  state_ = ConnState::kEstablished;
  fill_window(now_ms);
}

void ReliableConn::die(DeadReason reason) {
  state_ = ConnState::kDead;
  dead_reason_ = reason;
  in_flight_.clear();
  send_queue_.clear();
}

void ReliableConn::fill_window(double now_ms) {
  while (!send_queue_.empty() && in_flight_.size() < params_.window) {
    const std::uint32_t seq = next_seq_++;
    Bytes frame = std::move(send_queue_.front());
    send_queue_.pop_front();
    send_data(seq, frame, now_ms, nullptr);
    in_flight_.emplace(seq,
                       InFlight{std::move(frame), now_ms + params_.rto_initial_ms,
                                params_.rto_initial_ms, 1});
  }
}

void ReliableConn::send_data(std::uint32_t seq, const Bytes& frame,
                             double now_ms, InFlight* slot) {
  emit(Packet{PacketType::kData, conn_id_, seq, cum_recv_, sack_bits(), frame});
  if (slot != nullptr) {
    slot->attempts++;
    slot->rto_ms = std::min(slot->rto_ms * params_.rto_backoff,
                            params_.rto_max_ms);
    slot->next_resend_ms = now_ms + slot->rto_ms;
  }
}

void ReliableConn::on_ack(std::uint32_t ack, std::uint32_t sack,
                          double now_ms) {
  // Cumulative: everything at or below `ack` arrived.
  in_flight_.erase(in_flight_.begin(), in_flight_.upper_bound(ack));
  // Selective: bit i covers seq ack+1+i.
  for (std::uint32_t i = 0; i < kSackSpan && sack != 0; ++i) {
    if ((sack >> i) & 1U) in_flight_.erase(ack + 1 + i);
  }
  fill_window(now_ms);
}

void ReliableConn::on_data(const Packet& p, double now_ms) {
  (void)now_ms;
  const std::uint32_t seq = p.seq;
  if (seq <= cum_recv_) {
    stats_.dup_rx++;  // already delivered — re-ack so the resends stop
    emit_ack();
    return;
  }
  if (seq > cum_recv_ + params_.recv_window) {
    stats_.beyond_window_rx++;  // sender will retry once the window moves
    return;
  }
  if (!recv_buf_.emplace(seq, p.payload).second) {
    stats_.dup_rx++;
    emit_ack();
    return;
  }
  if (seq != cum_recv_ + 1) stats_.out_of_order_rx++;
  // Advance the cumulative frontier through any newly contiguous run.
  auto it = recv_buf_.find(cum_recv_ + 1);
  while (it != recv_buf_.end()) {
    delivered_.push_back(std::move(it->second));
    stats_.frames_delivered++;
    cum_recv_++;
    it = recv_buf_.erase(it);
    if (it == recv_buf_.end() || it->first != cum_recv_ + 1) {
      it = recv_buf_.find(cum_recv_ + 1);
    }
  }
  emit_ack();
}

std::uint32_t ReliableConn::sack_bits() const {
  std::uint32_t bits = 0;
  for (auto it = recv_buf_.begin(); it != recv_buf_.end(); ++it) {
    const std::uint32_t off = it->first - cum_recv_ - 1;
    if (off >= kSackSpan) break;
    bits |= (1U << off);
  }
  return bits;
}

}  // namespace argus::transport
