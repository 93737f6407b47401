#include "transport/transport.hpp"

namespace argus::transport {

void SockTransport::send(PeerId to, Bytes frame, double now_ms) {
  (void)endpoint_.send(NetAddr::unpack(to), std::move(frame), now_ms);
}

void SockTransport::broadcast(const Bytes& frame, double now_ms) {
  for (const NetAddr& peer : endpoint_.live_peers()) {
    (void)endpoint_.send(peer, frame, now_ms);
  }
}

void SockTransport::pump(double now_ms) {
  for (auto& [from, frame] : endpoint_.pump(now_ms)) {
    if (handler_) handler_(from.pack(), frame);
  }
}

}  // namespace argus::transport
