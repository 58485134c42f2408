// The shared byte codec every frame format is written with: explicit
// little-endian fields, and a typed DecodeError on any read past the end.
#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace dmfsgd::common {
namespace {

std::vector<std::byte> BytesOf(std::initializer_list<unsigned> values) {
  std::vector<std::byte> bytes;
  for (const unsigned value : values) {
    bytes.push_back(static_cast<std::byte>(value));
  }
  return bytes;
}

TEST(ByteCodec, RoundTripsEveryFieldType) {
  const std::vector<std::byte> tail = BytesOf({'t', 'a', 'i', 'l'});
  ByteWriter writer;
  writer.U8(7);
  writer.U16(0xbeefu);
  writer.U32(0xdeadbeefu);
  writer.U64(0x0123456789abcdefULL);
  writer.F64(-1234.5678);
  writer.Bytes(tail);
  const std::vector<std::byte> bytes = writer.Take();
  ByteReader reader(bytes);
  EXPECT_EQ(reader.U8(), 7u);
  EXPECT_EQ(reader.U16(), 0xbeefu);
  EXPECT_EQ(reader.U32(), 0xdeadbeefu);
  EXPECT_EQ(reader.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.F64(), -1234.5678);
  EXPECT_FALSE(reader.AtEnd());
  const std::span<const std::byte> read_tail = reader.Bytes(4);
  EXPECT_EQ(std::vector<std::byte>(read_tail.begin(), read_tail.end()), tail);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteCodec, WritesLittleEndianOnEveryHost) {
  ByteWriter writer(32);
  writer.U16(0x0102u);
  writer.U32(0x01020304u);
  writer.U64(0x0102030405060708ULL);
  writer.F64(1.0);  // 0x3ff0000000000000
  EXPECT_EQ(writer.Take(),
            BytesOf({0x02, 0x01,                                      //
                     0x04, 0x03, 0x02, 0x01,                          //
                     0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  //
                     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f}));
}

TEST(ByteCodec, ThrowsDecodeErrorOnTruncation) {
  ByteWriter writer;
  writer.U32(42);
  const std::vector<std::byte> bytes = writer.Take();
  ByteReader reader(bytes);
  (void)reader.U32();
  EXPECT_THROW((void)reader.U8(), DecodeError);
  ByteReader short_reader(std::span<const std::byte>(bytes).first(2));
  EXPECT_THROW((void)short_reader.U32(), DecodeError);
  ByteReader empty(std::span<const std::byte>{});
  EXPECT_THROW((void)empty.F64(), DecodeError);
  // A length field from outside bytes can be anything; a huge one must
  // throw, not wrap the bounds check.
  ByteReader lying(bytes);
  EXPECT_THROW((void)lying.Bytes(~std::size_t{0}), DecodeError);
  EXPECT_TRUE(lying.Bytes(4).size() == 4u) << "a failed read consumes nothing";
  // The one typed error is still a std::runtime_error for generic handlers.
  ByteReader generic(std::span<const std::byte>{});
  EXPECT_THROW((void)generic.U8(), std::runtime_error);
}

}  // namespace
}  // namespace dmfsgd::common
