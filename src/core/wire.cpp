#include "core/wire.hpp"

#include <string>

namespace dmfsgd::core {

namespace {

using common::ByteReader;
using common::ByteWriter;

void PutVector(ByteWriter& out, const std::vector<double>& values) {
  if (values.size() > kMaxWireVectorSize) {
    throw WireError("Encode: coordinate vector too long");
  }
  out.U16(static_cast<std::uint16_t>(values.size()));
  for (const double v : values) {
    out.F64(v);
  }
}

std::vector<double> GetVector(ByteReader& reader) {
  const std::uint16_t count = reader.U16();
  if (count > kMaxWireVectorSize) {
    throw WireError("Decode: coordinate vector length out of bounds");
  }
  std::vector<double> values(count);
  for (double& v : values) {
    v = reader.F64();
  }
  return values;
}

void ExpectEnd(const ByteReader& reader) {
  if (!reader.AtEnd()) {
    throw WireError("Decode: trailing bytes in message");
  }
}

ByteWriter OpenFrame(MessageType type) {
  ByteWriter out;
  out.U8(kWireVersion);
  out.U8(static_cast<std::uint8_t>(type));
  return out;
}

ByteReader OpenMessage(std::span<const std::byte> buffer, MessageType expected) {
  ByteReader reader(buffer);
  const std::uint8_t version = reader.U8();
  if (version != kWireVersion) {
    throw WireError("Decode: unsupported wire version " + std::to_string(version));
  }
  const std::uint8_t tag = reader.U8();
  if (tag != static_cast<std::uint8_t>(expected)) {
    throw WireError("Decode: unexpected message type " + std::to_string(tag));
  }
  return reader;
}

}  // namespace

std::vector<std::byte> Encode(const RttProbeRequest& message) {
  ByteWriter out = OpenFrame(MessageType::kRttProbeRequest);
  out.U32(message.prober);
  return out.Take();
}

std::vector<std::byte> Encode(const RttProbeReply& message) {
  ByteWriter out = OpenFrame(MessageType::kRttProbeReply);
  out.U32(message.target);
  PutVector(out, message.u);
  PutVector(out, message.v);
  return out.Take();
}

std::vector<std::byte> Encode(const AbwProbeRequest& message) {
  ByteWriter out = OpenFrame(MessageType::kAbwProbeRequest);
  out.U32(message.prober);
  PutVector(out, message.u);
  out.F64(message.rate_mbps);
  return out.Take();
}

std::vector<std::byte> Encode(const AbwProbeReply& message) {
  ByteWriter out = OpenFrame(MessageType::kAbwProbeReply);
  out.U32(message.target);
  out.F64(message.measurement);
  PutVector(out, message.v);
  return out.Take();
}

MessageType PeekType(std::span<const std::byte> buffer) {
  ByteReader reader(buffer);
  const std::uint8_t version = reader.U8();
  if (version != kWireVersion) {
    throw WireError("PeekType: unsupported wire version");
  }
  const std::uint8_t tag = reader.U8();
  if (tag < static_cast<std::uint8_t>(MessageType::kRttProbeRequest) ||
      tag > static_cast<std::uint8_t>(MessageType::kMessageBatch)) {
    throw WireError("PeekType: unknown message type " + std::to_string(tag));
  }
  return static_cast<MessageType>(tag);
}

RttProbeRequest DecodeRttProbeRequest(std::span<const std::byte> buffer) {
  ByteReader reader = OpenMessage(buffer, MessageType::kRttProbeRequest);
  RttProbeRequest message;
  message.prober = reader.U32();
  ExpectEnd(reader);
  return message;
}

RttProbeReply DecodeRttProbeReply(std::span<const std::byte> buffer) {
  ByteReader reader = OpenMessage(buffer, MessageType::kRttProbeReply);
  RttProbeReply message;
  message.target = reader.U32();
  message.u = GetVector(reader);
  message.v = GetVector(reader);
  ExpectEnd(reader);
  return message;
}

AbwProbeRequest DecodeAbwProbeRequest(std::span<const std::byte> buffer) {
  ByteReader reader = OpenMessage(buffer, MessageType::kAbwProbeRequest);
  AbwProbeRequest message;
  message.prober = reader.U32();
  message.u = GetVector(reader);
  message.rate_mbps = reader.F64();
  ExpectEnd(reader);
  return message;
}

AbwProbeReply DecodeAbwProbeReply(std::span<const std::byte> buffer) {
  ByteReader reader = OpenMessage(buffer, MessageType::kAbwProbeReply);
  AbwProbeReply message;
  message.target = reader.U32();
  message.measurement = reader.F64();
  message.v = GetVector(reader);
  ExpectEnd(reader);
  return message;
}

}  // namespace dmfsgd::core
