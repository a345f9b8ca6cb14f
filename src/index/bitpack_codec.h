// Copyright 2026 The deepsurf Authors.
//
// Fixed-width bit-packed codec for posting-list doc-id blocks — the
// index's one sealed-block format (IndexOptions::compress_postings). A
// sealed block of ascending doc ids is stored as its delta gaps, every
// gap packed at the SAME bit width w = bits(max gap of the block):
//
//   byte 0   : w (0..32)
//   byte 1.. : ceil(n*w / 8) bytes of gaps, horizontal layout — gap i
//              occupies bits [i*w, (i+1)*w) of a little-endian bit
//              stream (bit j lives in byte j/8 at in-byte position j%8)
//
// Decode walks a 64-bit window over the horizontal stream with
// shift/mask — one unaligned load per gap, no per-byte branch — and
// prefix-sums the gaps back to absolute doc ids. It is the only decode
// kernel: a 4-wide SIMD kernel beat it in the isolated decode
// microbench but in no bench_index query cell.
//
// The decoder never trusts its input: a missing or out-of-range width
// byte, or a buffer shorter than the packed payload the width implies,
// yields 0 — never a read past `end`.

#ifndef DEEPSURF_INDEX_BITPACK_CODEC_H_
#define DEEPSURF_INDEX_BITPACK_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace deepsurf {
namespace index {

/// The decode kernel, recorded as provenance next to benchmark numbers.
/// Scalar is the only one.
enum class BitpackKernel : uint8_t { kScalar = 0 };

/// Stable lowercase name ("scalar") — what the bench JSON records so
/// checked-in numbers are interpretable across builds.
const char* BitpackKernelName(BitpackKernel k);

/// The kernel decodes use: always kScalar.
BitpackKernel ActiveBitpackKernel();

/// Appends the bit-packed encoding of `n` ascending doc ids to `out`:
/// gaps against `base` (the previous block's last id; 0 for a list's
/// first block), all at the block's max gap width.
void EncodeBitpackBlock(const uint32_t* docs, size_t n, uint32_t base,
                        std::vector<uint8_t>* out);

/// Exact encoded size in bytes of a block with `n` gaps at width `w`
/// (header byte included).
size_t BitpackEncodedSize(size_t n, uint32_t width);

/// Decodes `n` doc ids from [p, end) against `base` into `out` (caller
/// provides capacity for n). Returns the bytes consumed, or 0 on
/// truncated/malformed input (`out` contents are unspecified then).
size_t DecodeBitpackBlock(const uint8_t* p, const uint8_t* end, size_t n,
                          uint32_t base, uint32_t* out);

}  // namespace index
}  // namespace deepsurf

#endif  // DEEPSURF_INDEX_BITPACK_CODEC_H_
