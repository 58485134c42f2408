// The one binary codec: little-endian, bounds-checked byte frames.
//
// Every frame the program ships between processes or reads from a socket —
// wire messages and batch frames (core/wire, core/delivery), the window
// protocol and result fold (netsim/shard_runtime, core/multiprocess), the
// reliability header (netsim/reliable_channel) and the UDP sender prefix —
// is written by ByteWriter and read by ByteReader.  Integers go out in
// explicit little-endian order (a plain copy on little-endian hosts, a byte
// swap elsewhere) and doubles as their IEEE-754 binary64 bits, so a frame
// has the same bytes on every host.  A read past the end throws
// DecodeError, the one typed error every decoder of outside bytes raises: a
// truncated or garbled frame can never be misparsed or read out of bounds.
// Layout rules (version bytes, counts, length bounds) stay with each format.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace dmfsgd::common {

/// Thrown by every decoder of outside bytes on malformed input: truncation
/// here, and each format's own checks (version, tag, counts, lengths,
/// trailing bytes) one layer up.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace bytes_detail {

/// `value` in little-endian byte order (its own inverse).
template <typename T>
[[nodiscard]] constexpr T LittleEndian(T value) noexcept {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    return value;
  } else {
    T swapped = 0;
    for (std::size_t b = 0; b < sizeof(T); ++b) {
      swapped = static_cast<T>((swapped << 8) | ((value >> (8 * b)) & 0xffu));
    }
    return swapped;
  }
}

[[noreturn]] void ThrowTruncated();

}  // namespace bytes_detail

/// Appends fields to a growing frame.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Reserves `capacity` bytes up front, for frames whose size is known.
  explicit ByteWriter(std::size_t capacity) { bytes_.reserve(capacity); }

  void U8(std::uint8_t value) { bytes_.push_back(static_cast<std::byte>(value)); }
  void U16(std::uint16_t value) { Put(value); }
  void U32(std::uint32_t value) { Put(value); }
  void U64(std::uint64_t value) { Put(value); }
  void F64(double value) { Put(std::bit_cast<std::uint64_t>(value)); }
  void Bytes(std::span<const std::byte> bytes) {
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] std::vector<std::byte> Take() { return std::move(bytes_); }

 private:
  template <typename T>
  void Put(T value) {
    const T little = bytes_detail::LittleEndian(value);
    const std::size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    std::memcpy(bytes_.data() + at, &little, sizeof(T));
  }

  std::vector<std::byte> bytes_;
};

/// Reads fields front to back from a frame it does not own; every read
/// throws DecodeError if the frame ends first.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t U8() {
    Need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  [[nodiscard]] std::uint16_t U16() { return Get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t U32() { return Get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t U64() { return Get<std::uint64_t>(); }
  [[nodiscard]] double F64() { return std::bit_cast<double>(U64()); }

  /// The next `count` bytes, viewed in place.
  [[nodiscard]] std::span<const std::byte> Bytes(std::size_t count) {
    Need(count);
    const std::span<const std::byte> slice = bytes_.subspan(pos_, count);
    pos_ += count;
    return slice;
  }

  [[nodiscard]] bool AtEnd() const noexcept { return pos_ == bytes_.size(); }

 private:
  void Need(std::size_t count) const {
    if (count > bytes_.size() - pos_) {
      bytes_detail::ThrowTruncated();
    }
  }

  template <typename T>
  [[nodiscard]] T Get() {
    Need(sizeof(T));
    T little = 0;
    std::memcpy(&little, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return bytes_detail::LittleEndian(little);
  }

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace dmfsgd::common
