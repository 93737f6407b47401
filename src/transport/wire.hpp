// Packet header codec for the reliable-ordered datagram layer.
//
// Every datagram on the real transport is one packet:
//
//   "AT"    2-byte magic
//   u8      wire version (kWireVersion)
//   u8      PacketType
//   u32     connection id (chosen by the initiator's SYN)
//   u32     seq   (DATA: sequence number, 1-based; SYN: initial hint)
//   u32     ack   (cumulative: every DATA seq <= ack was received)
//   u32     sack  (bit i set => seq ack+1+i also received, out of order)
//   u16     payload length
//   raw     payload (DATA only; others carry none)
//
// All integers big-endian via common/serde.hpp, matching the Argus
// message codec. decode_packet is total: malformed input maps to a
// distinct WireError, never a throw — the fuzz suite in
// tests/transport/wire_fuzz_test.cpp leans on that contract the same way
// messages_test leans on decode().
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace argus::transport {

inline constexpr std::uint8_t kWireVersion = 1;
/// Fixed header size in bytes (everything before the payload).
inline constexpr std::size_t kHeaderSize = 2 + 1 + 1 + 4 + 4 + 4 + 4 + 2;
/// Bits of selective-ack coverage above the cumulative ack.
inline constexpr std::uint32_t kSackSpan = 32;
/// Hard bound on one packet's payload; oversized frames must be rejected
/// by the sender, not fragmented here (Argus frames are ~1 kB).
inline constexpr std::size_t kMaxPayload = 8 * 1024;

enum class PacketType : std::uint8_t {
  kSyn = 1,     // open a connection (initiator)
  kSynAck = 2,  // accept (responder)
  kData = 3,    // one application frame, reliable-ordered
  kAck = 4,     // bare cumulative+selective ack
  kPing = 5,    // keep-alive probe
  kPong = 6,    // keep-alive answer
  kFin = 7,     // orderly close (best-effort; loss falls back to keep-alive)
};

struct Packet {
  PacketType type = PacketType::kData;
  std::uint32_t conn = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint32_t sack = 0;
  Bytes payload;
};

enum class WireError : std::uint8_t {
  kOk = 0,
  kTruncated,       // shorter than the header, or payload cut off
  kBadMagic,        // not a transport packet at all
  kBadVersion,      // produced by an unknown codec version
  kBadType,         // unassigned PacketType value
  kLengthMismatch,  // trailing bytes after the declared payload
  kOversized,       // declared payload above kMaxPayload
};

[[nodiscard]] Bytes encode_packet(const Packet& p);

/// Total decode: returns nullopt and fills *err (if given) on any
/// malformed input. Never throws.
[[nodiscard]] std::optional<Packet> decode_packet(ByteSpan wire,
                                                  WireError* err = nullptr);

}  // namespace argus::transport
