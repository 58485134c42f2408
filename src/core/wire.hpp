// Binary wire format for DMFSGD protocol messages.
//
// Layout (all integers little-endian, doubles IEEE-754 binary64):
//
//   byte 0      protocol version (kWireVersion)
//   byte 1      message type tag (MessageType)
//   bytes 2..   type-specific payload; vectors are encoded as a u16 element
//               count followed by the raw doubles
//
// The format is versioned and length-checked: Decode* functions throw
// WireError on truncated buffers, version or tag mismatches, so a corrupted
// datagram can never silently produce a bogus coordinate update.  Fields go
// through the shared byte codec (common/bytes.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "core/messages.hpp"

namespace dmfsgd::core {

inline constexpr std::uint8_t kWireVersion = 1;

enum class MessageType : std::uint8_t {
  kRttProbeRequest = 1,
  kRttProbeReply = 2,
  kAbwProbeRequest = 3,
  kAbwProbeReply = 4,
  /// A batch frame: several codec'd messages sharing one destination packed
  /// into a single buffer/datagram (DESIGN.md §13).  Decoded through
  /// DecodeBatchFrame (core/delivery.hpp), never through DecodeMessage.
  kMessageBatch = 5,
};

/// Thrown on any malformed buffer (truncation, bad version, bad tag,
/// oversized vector): the byte codec's one decode error.
using WireError = common::DecodeError;

/// Maximum coordinate vector length accepted on decode — sanity bound that
/// rejects garbage length fields before allocating.
inline constexpr std::size_t kMaxWireVectorSize = 4096;

/// Maximum messages one batch frame may carry — same role as
/// kMaxWireVectorSize: a garbage count field must be rejected before any
/// allocation or decode loop runs.
inline constexpr std::size_t kMaxWireBatchItems = 512;

[[nodiscard]] std::vector<std::byte> Encode(const RttProbeRequest& message);
[[nodiscard]] std::vector<std::byte> Encode(const RttProbeReply& message);
[[nodiscard]] std::vector<std::byte> Encode(const AbwProbeRequest& message);
[[nodiscard]] std::vector<std::byte> Encode(const AbwProbeReply& message);

/// Peeks at the message type of an encoded buffer (throws WireError if the
/// header is malformed).
[[nodiscard]] MessageType PeekType(std::span<const std::byte> buffer);

[[nodiscard]] RttProbeRequest DecodeRttProbeRequest(std::span<const std::byte> buffer);
[[nodiscard]] RttProbeReply DecodeRttProbeReply(std::span<const std::byte> buffer);
[[nodiscard]] AbwProbeRequest DecodeAbwProbeRequest(std::span<const std::byte> buffer);
[[nodiscard]] AbwProbeReply DecodeAbwProbeReply(std::span<const std::byte> buffer);

}  // namespace dmfsgd::core
