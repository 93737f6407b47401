// In-memory datagram hub for deterministic transport tests.
//
// A PipeHub is a tiny single-threaded "network": sockets opened from it
// are addressed as 127.0.0.1:<port> and deliver datagrams instantly into
// the destination's FIFO. No threads, no syscalls, no clock — wrap the
// sockets in fault/netem.hpp's shim and step a hand clock to replay the
// loss/dup/reorder scenarios byte-for-byte reproducibly (the
// ReliableOrderTest harness).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "transport/datagram.hpp"

namespace argus::transport {

class PipeSocket;

class PipeHub {
 public:
  PipeHub() = default;
  PipeHub(const PipeHub&) = delete;
  PipeHub& operator=(const PipeHub&) = delete;

  /// Open a socket at 127.0.0.1:`port` (port 0 picks the next free one).
  /// The socket must not outlive the hub.
  std::unique_ptr<PipeSocket> open(std::uint16_t port = 0);

 private:
  friend class PipeSocket;

  struct Inbox {
    std::deque<std::pair<NetAddr, Bytes>> q;
  };

  bool deliver(const NetAddr& from, const NetAddr& to, ByteSpan data);
  void close_port(std::uint16_t port);

  std::map<std::uint16_t, Inbox> inboxes_;
  std::uint16_t next_port_ = 40000;
};

class PipeSocket final : public DatagramSocket {
 public:
  ~PipeSocket() override;
  PipeSocket(const PipeSocket&) = delete;
  PipeSocket& operator=(const PipeSocket&) = delete;

  bool send_to(const NetAddr& to, ByteSpan data) override;
  bool recv_from(NetAddr* from, Bytes* data) override;
  [[nodiscard]] NetAddr local_addr() const override { return addr_; }

 private:
  friend class PipeHub;
  PipeSocket(PipeHub* hub, NetAddr addr) : hub_(hub), addr_(addr) {}

  PipeHub* hub_;
  NetAddr addr_;
};

}  // namespace argus::transport
