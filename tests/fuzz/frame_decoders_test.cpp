// Hostile-bytes sweep over every decoder of outside frames.
//
// Seeds come from the encoders; a fixed, seeded budget of mutants — byte
// flips, truncations, splices of two seeds, boundary values written over
// count and length fields, and inserted or trailing bytes — goes to each
// decoder.  The property: a call either throws common::DecodeError and
// nothing else, or returns a value that re-encodes to exactly the input
// bytes.  Deterministic (fixed seeds and budget), labeled `quick` and
// `fuzz`, so the ASan/UBSan and TSan legs walk every path it reaches.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "core/delivery.hpp"
#include "core/wire.hpp"
#include "netsim/event_queue.hpp"
#include "netsim/reliable_channel.hpp"

namespace dmfsgd {
namespace {

using Bytes = std::vector<std::byte>;

constexpr std::size_t kMutantsPerTarget = 20000;
constexpr std::uint64_t kSweepSeed = 0xf022u;

std::string Hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::byte b : bytes) {
    out += kDigits[static_cast<unsigned>(b) >> 4];
    out += kDigits[static_cast<unsigned>(b) & 0xfu];
  }
  return out;
}

std::vector<Bytes> MessageSeeds() {
  return {
      core::EncodeMessage(core::RttProbeRequest{3}),
      core::EncodeMessage(
          core::RttProbeReply{5, {1.0, -2.0, 0.5}, {0.25, 4.0, -8.0}}),
      core::EncodeMessage(core::AbwProbeRequest{7, {1.5, 2.5}, 12.0}),
      core::EncodeMessage(core::AbwProbeReply{1, 88.25, {-0.125}}),
      core::EncodeMessage(core::RttProbeReply{2, {}, {}}),
  };
}

std::vector<Bytes> BatchSeeds() {
  const std::vector<Bytes> messages = MessageSeeds();
  const std::span<const Bytes> all(messages);
  return {core::EncodeBatchFrame(all), core::EncodeBatchFrame(all.first(1)),
          core::EncodeBatchFrame(all.subspan(1, 3))};
}

std::vector<Bytes> ReliableSeeds() {
  return {netsim::EncodeReliableData(1, 0, 0, MessageSeeds()[0]),
          netsim::EncodeReliableData(9, 7, 0x5, BatchSeeds()[0]),
          netsim::EncodeReliableAck(4, 0x8000000000000001ULL)};
}

std::vector<Bytes> AllSeeds() {
  std::vector<Bytes> seeds = MessageSeeds();
  for (std::vector<Bytes> more : {BatchSeeds(), ReliableSeeds()}) {
    seeds.insert(seeds.end(), more.begin(), more.end());
  }
  return seeds;
}

/// Seeded source of mutants of a seed set; every mutant is one edit of one
/// seed (or a splice of two).
class Mutator {
 public:
  Mutator(std::vector<Bytes> seeds, std::uint64_t rng_seed)
      : seeds_(std::move(seeds)), rng_(rng_seed) {}

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
    const std::uint64_t boundaries[] = {
        0,
        1,
        bytes.size(),
        bytes.size() + 1,
        core::kMaxWireVectorSize + 1,
        core::kMaxWireBatchItems + 1,
        0x7fff,
        0xffff,
        0x7fffffff,
        0xffffffff,
    };
    const std::uint64_t value = boundaries[rng_.UniformInt(std::size(boundaries))];
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
  common::Rng rng_;
};

/// Feeds every seed, then kMutantsPerTarget mutants, to `reencode` (decode,
/// then encode the result again).  A DecodeError is a rejection; any other
/// exception, or an accepted input that re-encodes differently, fails.
template <typename Reencode>
void Sweep(const char* target, const std::vector<Bytes>& seeds,
           std::uint64_t rng_seed, Reencode reencode) {
  for (const Bytes& seed : seeds) {
    ASSERT_EQ(reencode(seed), seed) << target << " seed " << Hex(seed);
  }
  Mutator mutator(seeds, rng_seed);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t m = 0; m < kMutantsPerTarget; ++m) {
    const Bytes input = mutator.Next();
    try {
      const Bytes again = reencode(input);
      ++accepted;
      ASSERT_EQ(Hex(again), Hex(input))
          << target << " accepted bytes that re-encode differently";
    } catch (const common::DecodeError&) {
      ++rejected;
    } catch (const std::exception& other) {
      FAIL() << target << " threw a non-decode error (" << other.what()
             << ") on " << Hex(input);
    }
  }
  // Both outcomes must occur, or the sweep is not testing the decoder.
  EXPECT_GT(accepted, 0u) << target;
  EXPECT_GT(rejected, 0u) << target;
}

Bytes ReencodeBatch(std::span<const core::ProtocolMessage> messages) {
  std::vector<Bytes> encoded;
  for (const core::ProtocolMessage& message : messages) {
    encoded.push_back(core::EncodeMessage(message));
  }
  return core::EncodeBatchFrame(encoded);
}

TEST(FrameDecoders, DecodeMessage) {
  Sweep("DecodeMessage", MessageSeeds(), kSweepSeed + 1, [](const Bytes& in) {
    return core::EncodeMessage(core::DecodeMessage(in));
  });
}

TEST(FrameDecoders, DecodeBatchFrame) {
  Sweep("DecodeBatchFrame", BatchSeeds(), kSweepSeed + 2, [](const Bytes& in) {
    return ReencodeBatch(core::DecodeBatchFrame(in));
  });
}

TEST(FrameDecoders, DecodeEnvelopeCallback) {
  // 6 owners: a mutated sender field usually lands outside the deployment,
  // so the sender range check is swept too.
  netsim::ShardedEventQueue events(/*owners=*/6, /*shards=*/2);
  core::ShardedEventQueueDeliveryChannel channel(
      events, [](core::NodeId, core::NodeId) { return 0.01; });
  std::vector<core::MessageBatch> delivered;
  channel.BindSink(
      [&](const core::MessageBatch& batch) { delivered.push_back(batch); });
  std::vector<Bytes> seeds = {MessageSeeds()[0], MessageSeeds()[3],
                              MessageSeeds()[4], BatchSeeds()[1]};
  const std::vector<Bytes> replies = {MessageSeeds()[3], MessageSeeds()[4]};
  seeds.push_back(
      *core::ShardedEventQueueDeliveryChannel::MergeEnvelopesIfReplies(replies));
  Sweep("DecodeEnvelopeCallback", seeds, kSweepSeed + 3, [&](const Bytes& in) {
    delivered.clear();
    channel.DecodeEnvelopeCallback(4, in)();
    if (delivered.size() != 1) {
      ADD_FAILURE() << "one payload must deliver one batch";
      return Bytes{};
    }
    std::vector<core::ProtocolMessage> messages;
    for (const core::BatchItem& item : delivered.front().items) {
      EXPECT_LT(item.from, events.OwnerCount());
      EXPECT_EQ(item.from, core::SenderOf(item.message));
      messages.push_back(item.message);
    }
    if (core::PeekType(in) == core::MessageType::kMessageBatch) {
      return ReencodeBatch(messages);
    }
    EXPECT_EQ(messages.size(), 1u);
    return core::EncodeMessage(messages.front());
  });
}

TEST(FrameDecoders, DecodeReliableFrame) {
  Sweep("DecodeReliableFrame", ReliableSeeds(), kSweepSeed + 4,
        [](const Bytes& in) {
          const netsim::ReliableFrameView view = netsim::DecodeReliableFrame(in);
          if (view.type == netsim::kReliableAck) {
            return netsim::EncodeReliableAck(view.cumulative_ack,
                                             view.sack_bitmap);
          }
          return netsim::EncodeReliableData(view.seq, view.cumulative_ack,
                                            view.sack_bitmap, view.payload);
        });
}

// The codec itself, under a random program of reads per mutant: a read
// either throws DecodeError or returns the bytes it consumed, which the
// writer must reproduce exactly.
TEST(FrameDecoders, ByteReader) {
  Mutator mutator(AllSeeds(), kSweepSeed + 5);
  common::Rng& rng = mutator.rng();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t m = 0; m < kMutantsPerTarget; ++m) {
    const Bytes input = mutator.Next();
    common::ByteReader reader(input);
    common::ByteWriter again;
    std::size_t consumed = 0;
    try {
      const std::uint64_t reads = 1 + rng.UniformInt(12);
      for (std::uint64_t r = 0; r < reads; ++r) {
        switch (rng.UniformInt(7)) {
          case 0:
            again.U8(reader.U8());
            consumed += 1;
            break;
          case 1:
            again.U16(reader.U16());
            consumed += 2;
            break;
          case 2:
            again.U32(reader.U32());
            consumed += 4;
            break;
          case 3:
            again.U64(reader.U64());
            consumed += 8;
            break;
          case 4:
            again.F64(reader.F64());
            consumed += 8;
            break;
          case 5: {
            const std::size_t count = rng.UniformInt(input.size() + 2);
            again.Bytes(reader.Bytes(count));
            consumed += count;
            break;
          }
          default:  // a length field from outside bytes: any u32 or worse
            (void)reader.Bytes(rng.UniformInt(2) == 0 ? ~std::size_t{0}
                                                      : std::size_t{0xffffffffu});
            FAIL() << "a huge Bytes() read succeeded on " << input.size()
                   << " bytes";
        }
      }
      ++accepted;
    } catch (const common::DecodeError&) {
      ++rejected;
    }
    ASSERT_EQ(Hex(again.Take()),
              Hex(std::span<const std::byte>(input).first(consumed)));
    ASSERT_EQ(reader.AtEnd(), consumed == input.size());
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace dmfsgd
