// Connection table over one datagram socket.
//
// A TransportEndpoint owns every ReliableConn reachable through its
// socket, keyed by peer address (loopback/LAN addressing is stable, so
// the address is the identity; the conn id inside the packets detects a
// peer that restarted and re-dialed). Connections open two ways only:
// connect() dials, and a peer's SYN is accepted; send() rides an
// existing connection and never dials, so a reply to a client that has
// just closed is dropped instead of re-opening the connection. The
// table is LRU-bounded: dialing or accepting past `max_conns` evicts the
// least-recently-active connection — a SYN flood can churn the table but
// never grow it.
//
// pump() is the single drive point: drain the socket, route packets,
// tick every connection's timers, flush their outgoing datagrams, and
// reap the dead (retry-exhausted, keep-alive silence, half-open
// timeouts) with a traced drop per reap. All `transport.*` / `conn.*`
// counters and trace events on the real path live here.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "transport/datagram.hpp"
#include "transport/reliable.hpp"

namespace argus::transport {

struct EndpointParams {
  ReliableParams reliable{};
  std::size_t max_conns = 64;
  /// Datagrams drained per pump (bounds one call's work under flood).
  std::size_t max_recv_per_pump = 1024;
  /// First conn id this endpoint dials with (ISN-style). A restarted
  /// process must pick a different base (the tools mix in the PID) so
  /// its fresh SYN is distinguishable from a retransmit of the old
  /// connection's — that difference is what drives peer-restart
  /// replacement on the passive side. 0 is coerced to 1.
  std::uint32_t conn_id_base = 1;
};

class TransportEndpoint {
 public:
  TransportEndpoint(DatagramSocket& socket, EndpointParams params,
                    obs::MetricsRegistry* metrics = nullptr,
                    obs::Tracer* tracer = nullptr);

  /// Dial `peer` (or return the live connection to it). The only call
  /// that opens an outbound connection.
  ReliableConn* connect(const NetAddr& peer, double now_ms);

  /// Reliable-ordered send of one application frame over the live
  /// connection to `peer`. Never dials: with no connection (never
  /// connected, or already closed and reaped) the frame is refused with
  /// kClosed and counted as `transport.send_no_conn`.
  SendStatus send(const NetAddr& peer, Bytes frame, double now_ms);

  struct Inbound {
    NetAddr from;
    Bytes frame;
  };

  /// Drive the endpoint; returns application frames delivered in order
  /// per connection.
  std::vector<Inbound> pump(double now_ms);

  /// Orderly close of one peer's connection (best-effort FIN).
  void close(const NetAddr& peer, double now_ms);
  /// Orderly close of every live connection.
  void close_all(double now_ms);

  [[nodiscard]] const NetAddr& local_addr() const { return local_; }
  [[nodiscard]] std::size_t live_conns() const { return conns_.size(); }
  [[nodiscard]] std::size_t established_conns() const;
  /// Every peer with a live (non-defunct) connection, dialing included —
  /// frames sent to a still-handshaking peer queue behind its SYN.
  [[nodiscard]] std::vector<NetAddr> live_peers() const;
  /// Table probe for tests; nullptr when no connection exists.
  [[nodiscard]] const ReliableConn* conn(const NetAddr& peer) const;

  struct Stats {
    std::uint64_t opened = 0;    // we dialed
    std::uint64_t accepted = 0;  // peer dialed us
    std::uint64_t evicted = 0;   // LRU pressure at max_conns
    std::uint64_t reaped_dead = 0;
    std::uint64_t reaped_half_open = 0;
    std::uint64_t closed = 0;          // orderly FIN (either side)
    std::uint64_t replaced = 0;        // peer restarted: fresh SYN, new id
    std::uint64_t stale_dropped = 0;   // non-SYN from an unknown peer
    std::uint64_t decode_failed = 0;   // undecodable datagrams
    std::uint64_t rx_packets = 0;
    std::uint64_t tx_packets = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::unique_ptr<ReliableConn> conn;
    std::uint64_t lru = 0;
  };

  Entry* find(const NetAddr& peer);
  Entry* create(const NetAddr& peer, std::uint32_t conn_id, bool initiator,
                double now_ms);
  void evict_lru(double now_ms);
  void flush(const NetAddr& peer, Entry& e);
  void reap(double now_ms);
  void count(const std::string& name, std::uint64_t delta = 1);
  void trace_conn(double now_ms, const char* event, const NetAddr& peer,
                  std::uint64_t a = 0);

  DatagramSocket& socket_;
  EndpointParams params_;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;
  NetAddr local_;
  std::map<NetAddr, Entry> conns_;
  std::uint32_t next_conn_id_;
  std::uint64_t lru_seq_ = 0;
  Stats stats_;
};

}  // namespace argus::transport
