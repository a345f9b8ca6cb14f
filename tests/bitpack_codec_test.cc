// Fuzz and edge-case tests for the fixed-width bit-packed posting
// codec: round-trips over every bit width 0..32 and across block sizes
// (including non-multiples of the SIMD group sizes, so the scalar tail
// handoff inside the SIMD kernels is exercised), rejection of truncated
// and hostile buffers without reading past the end, exact consumed-size
// reporting when the buffer continues with more data (as the index's
// concatenated block stream does), and — the contract that makes
// runtime dispatch unobservable — bit-identical output from every
// compiled kernel on the same input.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "index/bitpack_codec.h"
#include "util/rng.h"

namespace deepsurf {
namespace index {
namespace {

/// Ascending doc ids whose gaps need exactly `width` bits (the first
/// gap carries the top bit so the encoder must pick `width`).
std::vector<uint32_t> DocsOfWidth(uint32_t width, size_t n, uint32_t base,
                                  Rng* rng) {
  std::vector<uint32_t> docs(n);
  uint64_t prev = base;
  for (size_t i = 0; i < n; ++i) {
    uint64_t gap;
    if (width == 0) {
      gap = 0;
    } else if (i == 0) {
      gap = uint64_t{1} << (width - 1);  // forces the encoder to `width`
    } else {
      gap = rng->Uniform(uint64_t{1} << width);
    }
    prev += gap;
    if (prev > std::numeric_limits<uint32_t>::max()) {
      prev = std::numeric_limits<uint32_t>::max();  // clamp, stays ascending
    }
    docs[i] = static_cast<uint32_t>(prev);
  }
  return docs;
}

TEST(BitpackCodecTest, RoundTripsEveryWidthAndAwkwardSizes) {
  Rng rng(7);
  for (uint32_t width = 0; width <= 32; ++width) {
    for (size_t n : {size_t{1}, size_t{3}, size_t{4}, size_t{7}, size_t{8},
                     size_t{9}, size_t{100}, size_t{128}, size_t{257}}) {
      const uint32_t base = width >= 31 ? 0 : 1000 + width;
      auto docs = DocsOfWidth(width, n, base, &rng);
      std::vector<uint8_t> packed;
      EncodeBitpackBlock(docs.data(), n, base, &packed);
      ASSERT_GE(packed.size(), 1u);
      const uint32_t stored_w = packed[0];
      EXPECT_LE(stored_w, 32u);
      EXPECT_EQ(packed.size(), BitpackEncodedSize(n, stored_w));

      std::vector<uint32_t> decoded(n, 0xdeadbeef);
      const size_t used =
          DecodeBitpackBlock(packed.data(), packed.data() + packed.size(), n,
                             base, decoded.data());
      ASSERT_EQ(used, packed.size()) << "width " << width << " n " << n;
      EXPECT_EQ(decoded, docs) << "width " << width << " n " << n;
    }
  }
}

TEST(BitpackCodecTest, EveryCompiledKernelDecodesIdentically) {
  const auto kernels = CompiledBitpackKernels();
  ASSERT_FALSE(kernels.empty());
  Rng rng(2026);
  for (int iter = 0; iter < 400; ++iter) {
    const uint32_t width = static_cast<uint32_t>(rng.Uniform(33));
    const size_t n = 1 + rng.Uniform(300);
    const uint32_t base = static_cast<uint32_t>(rng.Uniform(1u << 24));
    auto docs = DocsOfWidth(width, n, base, &rng);
    std::vector<uint8_t> packed;
    EncodeBitpackBlock(docs.data(), n, base, &packed);

    std::vector<uint32_t> reference(n);
    const size_t used = DecodeBitpackBlockWith(
        BitpackKernel::kScalar, packed.data(),
        packed.data() + packed.size(), n, base, reference.data());
    ASSERT_EQ(used, packed.size());
    EXPECT_EQ(reference, docs);

    for (BitpackKernel k : kernels) {
      if (k == BitpackKernel::kScalar) continue;
      std::vector<uint32_t> out(n, 0xabababab);
      const size_t kused =
          DecodeBitpackBlockWith(k, packed.data(),
                                 packed.data() + packed.size(), n, base,
                                 out.data());
      ASSERT_EQ(kused, used) << BitpackKernelName(k) << " iter " << iter;
      EXPECT_EQ(out, reference)
          << BitpackKernelName(k) << " iter " << iter << " width " << width
          << " n " << n;
    }
  }
}

TEST(BitpackCodecTest, TruncatedBuffersAreRejectedNotRead) {
  Rng rng(11);
  for (uint32_t width : {1u, 5u, 8u, 13u, 17u, 25u, 32u}) {
    const size_t n = 64;
    auto docs = DocsOfWidth(width, n, 0, &rng);
    std::vector<uint8_t> packed;
    EncodeBitpackBlock(docs.data(), n, 0, &packed);
    std::vector<uint32_t> out(n + 1);
    // Every strict prefix, including the bare width byte and the empty
    // buffer, must be rejected by every compiled kernel.
    for (BitpackKernel k : CompiledBitpackKernels()) {
      for (size_t len = 0; len < packed.size(); ++len) {
        EXPECT_EQ(DecodeBitpackBlockWith(k, packed.data(),
                                         packed.data() + len, n, 0,
                                         out.data()),
                  0u)
            << BitpackKernelName(k) << " width " << width << " prefix "
            << len;
      }
      // Asking for one more value than the payload holds is truncation
      // too (the width byte implies the exact payload size).
      EXPECT_EQ(DecodeBitpackBlockWith(k, packed.data(),
                                       packed.data() + packed.size(), n + 1,
                                       0, out.data()),
                0u);
    }
  }
  // A null/empty range never dereferences.
  uint32_t sink = 0;
  EXPECT_EQ(DecodeBitpackBlock(nullptr, nullptr, 1, 0, &sink), 0u);
}

TEST(BitpackCodecTest, HostileWidthByteIsRejected) {
  std::vector<uint8_t> hostile = {33, 0xff, 0xff, 0xff, 0xff};
  uint32_t out[4];
  for (BitpackKernel k : CompiledBitpackKernels()) {
    EXPECT_EQ(DecodeBitpackBlockWith(k, hostile.data(),
                                     hostile.data() + hostile.size(), 4, 0,
                                     out),
              0u);
  }
  hostile[0] = 255;
  EXPECT_EQ(DecodeBitpackBlock(hostile.data(),
                               hostile.data() + hostile.size(), 4, 0, out),
            0u);
}

TEST(BitpackCodecTest, ConsumesExactSizeWhenBufferContinues) {
  // The index stores blocks back to back: a decode must consume exactly
  // its own block and produce the same values whether or not more data
  // follows. Chain three blocks whose bases link (as sealed lists do).
  Rng rng(3);
  std::vector<uint8_t> stream;
  std::vector<std::vector<uint32_t>> blocks;
  std::vector<size_t> offsets;
  uint32_t base = 0;
  for (int b = 0; b < 3; ++b) {
    const uint32_t width = 3 + static_cast<uint32_t>(b) * 7;
    auto docs = DocsOfWidth(width, 128, base, &rng);
    offsets.push_back(stream.size());
    EncodeBitpackBlock(docs.data(), docs.size(), base, &stream);
    base = docs.back();
    blocks.push_back(std::move(docs));
  }
  uint32_t prev_last = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    std::vector<uint32_t> out(128);
    const size_t used = DecodeBitpackBlock(
        stream.data() + offsets[b], stream.data() + stream.size(), 128,
        prev_last, out.data());
    const size_t expected_size =
        (b + 1 < offsets.size() ? offsets[b + 1] : stream.size()) -
        offsets[b];
    EXPECT_EQ(used, expected_size);
    EXPECT_EQ(out, blocks[b]);
    prev_last = blocks[b].back();
  }
}

TEST(BitpackCodecTest, DenseGapOneBlockPacksToOneBitPerPosting) {
  // Consecutive doc ids — the dense-list best case — cost 1 bit each
  // (width 1), an 8x win even over one byte per gap.
  std::vector<uint32_t> docs(128);
  for (size_t i = 0; i < docs.size(); ++i) {
    docs[i] = 1000 + static_cast<uint32_t>(i);
  }
  std::vector<uint8_t> packed;
  EncodeBitpackBlock(docs.data(), docs.size(), 999, &packed);
  EXPECT_EQ(packed.size(), 1u + 128 / 8);
  std::vector<uint32_t> out(128);
  ASSERT_NE(DecodeBitpackBlock(packed.data(), packed.data() + packed.size(),
                               128, 999, out.data()),
            0u);
  EXPECT_EQ(out, docs);
}

TEST(BitpackCodecTest, KernelOverrideIsHonoredAndClearable) {
  const BitpackKernel active = ActiveBitpackKernel();
  ASSERT_TRUE(SetBitpackKernelOverride(BitpackKernel::kScalar));
  EXPECT_EQ(ActiveBitpackKernel(), BitpackKernel::kScalar);
  ClearBitpackKernelOverride();
  EXPECT_EQ(ActiveBitpackKernel(), active);
  // Every compiled kernel reports a stable name.
  for (BitpackKernel k : CompiledBitpackKernels()) {
    EXPECT_STRNE(BitpackKernelName(k), "unknown");
  }
}

}  // namespace
}  // namespace index
}  // namespace deepsurf
