#include "transport/pipe.hpp"

namespace argus::transport {

std::unique_ptr<PipeSocket> PipeHub::open(std::uint16_t port) {
  if (port == 0) {
    while (inboxes_.contains(next_port_)) ++next_port_;
    port = next_port_++;
  }
  inboxes_[port];  // create the inbox (re-opening a port reuses its queue)
  return std::unique_ptr<PipeSocket>(new PipeSocket(this, loopback(port)));
}

bool PipeHub::deliver(const NetAddr& from, const NetAddr& to, ByteSpan data) {
  const auto it = inboxes_.find(to.port);
  if (it == inboxes_.end() || to.ip != loopback(0).ip) {
    return true;  // UDP semantics: a send into the void still "succeeds"
  }
  it->second.q.emplace_back(from, Bytes(data.begin(), data.end()));
  return true;
}

void PipeHub::close_port(std::uint16_t port) { inboxes_.erase(port); }

PipeSocket::~PipeSocket() { hub_->close_port(addr_.port); }

bool PipeSocket::send_to(const NetAddr& to, ByteSpan data) {
  return hub_->deliver(addr_, to, data);
}

bool PipeSocket::recv_from(NetAddr* from, Bytes* data) {
  auto it = hub_->inboxes_.find(addr_.port);
  if (it == hub_->inboxes_.end() || it->second.q.empty()) return false;
  auto& [src, payload] = it->second.q.front();
  if (from != nullptr) *from = src;
  if (data != nullptr) *data = std::move(payload);
  it->second.q.pop_front();
  return true;
}

}  // namespace argus::transport
