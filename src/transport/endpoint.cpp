#include "transport/endpoint.hpp"

#include <utility>

namespace argus::transport {

TransportEndpoint::TransportEndpoint(DatagramSocket& socket,
                                     EndpointParams params,
                                     obs::MetricsRegistry* metrics,
                                     obs::Tracer* tracer)
    : socket_(socket),
      params_(params),
      metrics_(metrics),
      tracer_(tracer),
      local_(socket.local_addr()),
      next_conn_id_(params.conn_id_base == 0 ? 1 : params.conn_id_base) {}

ReliableConn* TransportEndpoint::connect(const NetAddr& peer, double now_ms) {
  if (Entry* e = find(peer); e != nullptr) return e->conn.get();
  Entry* e = create(peer, next_conn_id_++, /*initiator=*/true, now_ms);
  stats_.opened++;
  count("conn.opened");
  trace_conn(now_ms, "conn.open", peer);
  flush(peer, *e);
  return e->conn.get();
}

SendStatus TransportEndpoint::send(const NetAddr& peer, Bytes frame,
                                   double now_ms) {
  Entry* e = find(peer);
  if (e == nullptr) {
    // Never dial here: a reply to a peer whose FIN was just reaped would
    // otherwise open a fresh connection nobody answers.
    count("transport.send_no_conn");
    return SendStatus::kClosed;
  }
  const SendStatus st = e->conn->send(std::move(frame), now_ms);
  if (st == SendStatus::kCongested) count("transport.congested");
  e->lru = ++lru_seq_;
  flush(peer, *e);
  return st;
}

std::vector<TransportEndpoint::Inbound> TransportEndpoint::pump(
    double now_ms) {
  std::vector<Inbound> out;

  // 1. Drain the socket and route packets to their connections.
  NetAddr from;
  Bytes datagram;
  for (std::size_t i = 0;
       i < params_.max_recv_per_pump && socket_.recv_from(&from, &datagram);
       ++i) {
    stats_.rx_packets++;
    count("transport.rx.packets");
    count("transport.rx.bytes", datagram.size());
    WireError err = WireError::kOk;
    const auto packet = decode_packet(datagram, &err);
    if (!packet) {
      stats_.decode_failed++;
      count("transport.decode_failed");
      continue;
    }
    Entry* e = find(from);
    if (e == nullptr) {
      if (packet->type != PacketType::kSyn) {
        // No connection and no dial: stale traffic from a reaped or
        // restarted peer. Drop it — the peer's retransmits die on their
        // own retry budget.
        stats_.stale_dropped++;
        count("transport.stale_dropped");
        continue;
      }
      e = create(from, packet->conn, /*initiator=*/false, now_ms);
      stats_.accepted++;
      count("conn.accepted");
      trace_conn(now_ms, "conn.accept", from);
    } else if (packet->type == PacketType::kSyn &&
               packet->conn != e->conn->conn_id()) {
      // Same address, fresh conn id: the peer restarted. Replace the
      // stale connection rather than feeding its successor's handshake
      // into a dead state machine.
      conns_.erase(from);
      e = create(from, packet->conn, /*initiator=*/false, now_ms);
      stats_.replaced++;
      count("conn.replaced");
      trace_conn(now_ms, "conn.replace", from);
    }
    const bool was_established = e->conn->established();
    e->conn->on_packet(*packet, now_ms);
    if (!was_established && e->conn->established()) {
      count("conn.established");
      trace_conn(now_ms, "conn.establish", from);
    }
    e->lru = ++lru_seq_;
    for (Bytes& frame : e->conn->take_delivered()) {
      out.push_back(Inbound{from, std::move(frame)});
    }
    flush(from, *e);
  }

  // 2. Timers: retransmits, keep-alives, death clocks.
  for (auto& [peer, e] : conns_) {
    e.conn->tick(now_ms);
    for (Bytes& frame : e.conn->take_delivered()) {
      out.push_back(Inbound{peer, std::move(frame)});
    }
    flush(peer, e);
  }

  // 3. Reap the defunct.
  reap(now_ms);
  return out;
}

void TransportEndpoint::close(const NetAddr& peer, double now_ms) {
  Entry* e = find(peer);
  if (e == nullptr) return;
  e->conn->close(now_ms);
  flush(peer, *e);
}

void TransportEndpoint::close_all(double now_ms) {
  for (auto& [peer, e] : conns_) {
    e.conn->close(now_ms);
    flush(peer, e);
  }
  reap(now_ms);
}

std::size_t TransportEndpoint::established_conns() const {
  std::size_t n = 0;
  for (const auto& [peer, e] : conns_) n += e.conn->established() ? 1 : 0;
  return n;
}

std::vector<NetAddr> TransportEndpoint::live_peers() const {
  std::vector<NetAddr> peers;
  for (const auto& [peer, e] : conns_) {
    if (!e.conn->defunct()) peers.push_back(peer);
  }
  return peers;
}

const ReliableConn* TransportEndpoint::conn(const NetAddr& peer) const {
  const auto it = conns_.find(peer);
  return it == conns_.end() ? nullptr : it->second.conn.get();
}

TransportEndpoint::Entry* TransportEndpoint::find(const NetAddr& peer) {
  const auto it = conns_.find(peer);
  return it == conns_.end() ? nullptr : &it->second;
}

TransportEndpoint::Entry* TransportEndpoint::create(const NetAddr& peer,
                                                    std::uint32_t conn_id,
                                                    bool initiator,
                                                    double now_ms) {
  if (conns_.size() >= params_.max_conns) evict_lru(now_ms);
  auto conn =
      std::make_unique<ReliableConn>(conn_id, initiator, params_.reliable,
                                     now_ms);
  Entry& e = conns_[peer];
  e.conn = std::move(conn);
  e.lru = ++lru_seq_;
  return &e;
}

void TransportEndpoint::evict_lru(double now_ms) {
  auto victim = conns_.end();
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (victim == conns_.end() || it->second.lru < victim->second.lru) {
      victim = it;
    }
  }
  if (victim == conns_.end()) return;
  stats_.evicted++;
  count("conn.evicted");
  trace_conn(now_ms, "conn.evict", victim->first);
  conns_.erase(victim);
}

void TransportEndpoint::flush(const NetAddr& peer, Entry& e) {
  for (const Bytes& datagram : e.conn->take_outgoing()) {
    stats_.tx_packets++;
    count("transport.tx.packets");
    count("transport.tx.bytes", datagram.size());
    socket_.send_to(peer, datagram);
  }
}

void TransportEndpoint::reap(double now_ms) {
  for (auto it = conns_.begin(); it != conns_.end();) {
    ReliableConn& c = *it->second.conn;
    if (!c.defunct()) {
      ++it;
      continue;
    }
    if (c.state() == ConnState::kClosed) {
      stats_.closed++;
      count("conn.closed");
      trace_conn(now_ms, "conn.close", it->first);
    } else if (c.dead_reason() == DeadReason::kHalfOpenTimeout) {
      stats_.reaped_half_open++;
      count("conn.reaped_half_open");
      trace_conn(now_ms, "conn.reap_half_open", it->first);
    } else {
      // Peer-dead: traced drop, counted per reason. The caller observes
      // the vanished peer as undelivered frames, never as a hang.
      stats_.reaped_dead++;
      count(std::string("conn.dead.") + dead_reason_name(c.dead_reason()));
      trace_conn(now_ms, "conn.reap_dead", it->first,
                 static_cast<std::uint64_t>(c.dead_reason()));
    }
    it = conns_.erase(it);
  }
}

void TransportEndpoint::count(const std::string& name, std::uint64_t delta) {
  if (metrics_ != nullptr) metrics_->counter(name).inc(delta);
}

void TransportEndpoint::trace_conn(double now_ms, const char* event,
                                   const NetAddr& peer, std::uint64_t a) {
  if (tracer_ != nullptr) {
    tracer_->instant(now_ms, 0, event, "transport", a, 0, peer.str());
  }
}

}  // namespace argus::transport
