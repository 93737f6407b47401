// Frame-level face of the reliable-ordered datagram layer, as the
// daemon's ObjectHost and SubjectClient see it.
//
// The Argus engines are pure state machines: bytes in, bytes out.
// SockTransport carries their frames over a TransportEndpoint
// (endpoint.hpp) on real UDP/loopback or the in-memory pipe hub — the
// production face of `argusd`/`argusctl`. The simulator does not run
// through it: the discrete-event radio model drives the engines
// directly (argus/discovery.cpp), and the subject's retry discipline is
// shared with it one layer up, in core::SubjectRound.
//
// send() only rides a connection that already exists; dialing is the
// caller's job (TransportEndpoint::connect). A frame the endpoint refuses
// (no connection, one that closed or died, or a full send queue) is
// dropped; the subject's retry timers recover from the loss — graceful
// degradation, never a hang or a throw.
#pragma once

#include <functional>

#include "transport/endpoint.hpp"

namespace argus::transport {

/// Opaque peer identity: a packed NetAddr. Feeds straight through to the
/// engines' `peer` argument (admission buckets, session attribution).
using PeerId = std::uint64_t;

class SockTransport {
 public:
  using Handler = std::function<void(PeerId, const Bytes&)>;

  explicit SockTransport(TransportEndpoint& endpoint) : endpoint_(endpoint) {}

  /// Install the inbound-frame sink (replaces any previous handler).
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Reliable frame to one connected peer.
  void send(PeerId to, Bytes frame, double now_ms);

  /// Frame to every live connection.
  void broadcast(const Bytes& frame, double now_ms);

  /// Drain datagrams and fire the endpoint's timers up to `now_ms`.
  /// Inbound frames arrive via the handler during this call.
  void pump(double now_ms);

 private:
  TransportEndpoint& endpoint_;
  Handler handler_;
};

}  // namespace argus::transport
