// Seeded mutation source shared by the hostile-bytes sweeps under
// tests/fuzz/: byte flips, truncations, splices of two seeds, boundary
// values written over count and length fields, and inserted or trailing
// bytes.  Deterministic for a fixed seed set and RNG seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace dmfsgd::fuzz {

using Bytes = std::vector<std::byte>;

/// Seeded source of mutants of a seed set; every mutant is one edit of one
/// seed (or a splice of two).
class Mutator {
 public:
  /// `field_limits` are the target decoder's own count limits; a boundary
  /// edit may write one of them (or a generic boundary) over a field.
  Mutator(std::vector<Bytes> seeds, std::uint64_t rng_seed,
          std::vector<std::uint64_t> field_limits = {})
      : seeds_(std::move(seeds)),
        field_limits_(std::move(field_limits)),
        rng_(rng_seed) {}

  Bytes Next() {
    Bytes bytes = Pick();
    switch (rng_.UniformInt(6)) {
      case 0: {  // flip one to three bytes
        const std::uint64_t flips = 1 + rng_.UniformInt(3);
        for (std::uint64_t f = 0; f < flips && !bytes.empty(); ++f) {
          bytes[Index(bytes.size())] ^= static_cast<std::byte>(1 + rng_.UniformInt(255));
        }
        break;
      }
      case 1:  // truncate
        bytes.resize(rng_.UniformInt(bytes.size() + 1));
        break;
      case 2: {  // splice: this seed's head onto another seed's tail
        const Bytes other = Pick();
        bytes.resize(rng_.UniformInt(bytes.size() + 1));
        bytes.insert(bytes.end(),
                     other.begin() + static_cast<std::ptrdiff_t>(
                                         rng_.UniformInt(other.size() + 1)),
                     other.end());
        break;
      }
      case 3:  // a boundary value over a count or length field
        Inflate(bytes);
        break;
      case 4: {  // insert random bytes anywhere
        const std::uint64_t count = 1 + rng_.UniformInt(4);
        const auto at = static_cast<std::ptrdiff_t>(rng_.UniformInt(bytes.size() + 1));
        for (std::uint64_t b = 0; b < count; ++b) {
          bytes.insert(bytes.begin() + at, static_cast<std::byte>(rng_.UniformInt(256)));
        }
        break;
      }
      default: {  // trailing bytes
        const std::uint64_t count = 1 + rng_.UniformInt(4);
        for (std::uint64_t b = 0; b < count; ++b) {
          bytes.push_back(static_cast<std::byte>(rng_.UniformInt(256)));
        }
        break;
      }
    }
    return bytes;
  }

  common::Rng& rng() { return rng_; }

 private:
  const Bytes& Pick() { return seeds_[rng_.UniformInt(seeds_.size())]; }

  std::size_t Index(std::size_t size) {
    return static_cast<std::size_t>(rng_.UniformInt(size));
  }

  /// Writes a little-endian u16 or u32 boundary value at a random offset.
  void Inflate(Bytes& bytes) {
    std::vector<std::uint64_t> boundaries = {0, 1, bytes.size(), bytes.size() + 1};
    boundaries.insert(boundaries.end(), field_limits_.begin(), field_limits_.end());
    boundaries.insert(boundaries.end(), {0x7fff, 0xffff, 0x7fffffff, 0xffffffff});
    const std::uint64_t value = boundaries[rng_.UniformInt(boundaries.size())];
    const std::size_t width = rng_.UniformInt(2) == 0 ? 2 : 4;
    if (bytes.size() < width) {
      return;
    }
    const std::size_t at = Index(bytes.size() - width + 1);
    for (std::size_t b = 0; b < width; ++b) {
      bytes[at + b] = static_cast<std::byte>((value >> (8 * b)) & 0xffu);
    }
  }

  std::vector<Bytes> seeds_;
  std::vector<std::uint64_t> field_limits_;
  common::Rng rng_;
};

}  // namespace dmfsgd::fuzz
