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
// Horizontal layout makes decode word-parallel: the scalar kernel
// walks a 64-bit window with shift/mask (no per-byte branch), and the
// SSE4.1 kernel (compiled under __SSE4_1__, chosen by runtime dispatch)
// unpacks 4 gaps per step and prefix-sums them back to absolute doc ids
// in vector registers. Both kernels produce identical output for
// identical input — pinned by bitpack_codec_test's scalar≡SIMD fuzz —
// so which kernel ran is unobservable in results, only in nanoseconds.
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

/// Decode kernels, narrowest-ISA first. Which ones exist in a binary
/// depends on the compile flags (-march / -msse4.1); which one runs is
/// decided once at runtime from cpuid.
enum class BitpackKernel : uint8_t { kScalar = 0, kSse41 = 1 };

/// Stable lowercase name ("scalar", "sse41") — what the bench
/// JSON records so checked-in numbers are interpretable across runners.
const char* BitpackKernelName(BitpackKernel k);

/// Kernels compiled into this binary, strongest ISA first. Always
/// contains at least kScalar.
std::vector<BitpackKernel> CompiledBitpackKernels();

/// The kernel undirected decodes will actually use: the strongest one
/// that is both compiled in and supported by this CPU (cpuid-checked
/// once), unless overridden.
BitpackKernel ActiveBitpackKernel();

/// Test/bench hook: force every subsequent decode onto `k` (which must
/// be compiled in and CPU-supported — returns false otherwise). Pass
/// nullptr-like reset via ClearBitpackKernelOverride(). Not for
/// production paths; reads are a single relaxed atomic load.
bool SetBitpackKernelOverride(BitpackKernel k);
void ClearBitpackKernelOverride();

/// Appends the bit-packed encoding of `n` ascending doc ids to `out`:
/// gaps against `base` (the previous block's last id; 0 for a list's
/// first block), all at the block's max gap width.
void EncodeBitpackBlock(const uint32_t* docs, size_t n, uint32_t base,
                        std::vector<uint8_t>* out);

/// Exact encoded size in bytes of a block with `n` gaps at width `w`
/// (header byte included).
size_t BitpackEncodedSize(size_t n, uint32_t width);

/// Decodes `n` doc ids from [p, end) against `base` into `out` (caller
/// provides capacity for n) using the active kernel. Returns the bytes
/// consumed, or 0 on truncated/malformed input (`out` contents are
/// unspecified then).
size_t DecodeBitpackBlock(const uint8_t* p, const uint8_t* end, size_t n,
                          uint32_t base, uint32_t* out);

/// As DecodeBitpackBlock but on an explicit kernel — the scalar≡SIMD
/// equality tests and the decode microbench drive this directly.
/// Calling it with a kernel that is not compiled in falls back to
/// scalar (it cannot crash on an unsupported CPU only if the caller
/// checked ActiveBitpackKernel/CompiledBitpackKernels first).
size_t DecodeBitpackBlockWith(BitpackKernel kernel, const uint8_t* p,
                              const uint8_t* end, size_t n, uint32_t base,
                              uint32_t* out);

}  // namespace index
}  // namespace deepsurf

#endif  // DEEPSURF_INDEX_BITPACK_CODEC_H_
