#include "index/bitpack_codec.h"

#include <atomic>
#include <cstring>

#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif

namespace deepsurf {
namespace index {

namespace {

/// Unaligned little-endian 64-bit load. On LE hardware this compiles to
/// one mov; the byte-assembling fallback keeps big-endian hosts correct
/// (the packed stream is defined little-endian, not host-endian).
inline uint64_t Load64LE(const uint8_t* p) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
#else
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
#endif
}

/// As Load64LE but for the last few stream bytes: reads exactly
/// `avail` (< 8) bytes, zero-extends the rest.
inline uint64_t Load64LETail(const uint8_t* p, size_t avail) {
  uint64_t v = 0;
  for (size_t i = avail; i-- > 0;) v = (v << 8) | p[i];
  return v;
}

/// Scalar kernel: walk a 64-bit window over the horizontal bit stream,
/// starting at stream bit `bit`. A gap at bit position b spans at most
/// bits [b, b+39) (w <= 32, b%8 <= 7), so one aligned-to-byte 64-bit
/// load always covers it — no per-byte continuation branch.
/// `stream_end` bounds every load (the final values
/// assemble their window from the remaining bytes instead of
/// over-reading). The SIMD kernel hands its sub-group tails here,
/// which may start mid-byte — hence the explicit start bit.
void UnpackScalarFrom(const uint8_t* payload, const uint8_t* stream_end,
                      uint64_t bit, size_t n, uint32_t w, uint32_t base,
                      uint32_t* out) {
  if (w == 0) {
    for (size_t i = 0; i < n; ++i) out[i] = base;
    return;
  }
  const uint64_t mask = (uint64_t{1} << w) - 1;
  const size_t stream_bytes = static_cast<size_t>(stream_end - payload);
  // Values whose 8-byte window provably stays inside the stream.
  size_t n_fast = 0;
  if (stream_bytes >= 8) {
    const uint64_t last_safe_bit =
        static_cast<uint64_t>(stream_bytes - 8) * 8 + 7;
    if (bit <= last_safe_bit) {
      const uint64_t cnt = (last_safe_bit - bit) / w + 1;
      n_fast = cnt < n ? static_cast<size_t>(cnt) : n;
    }
  }
  uint32_t prev = base;
  size_t i = 0;
  for (; i < n_fast; ++i, bit += w) {
    const uint64_t word = Load64LE(payload + (bit >> 3));
    prev += static_cast<uint32_t>((word >> (bit & 7)) & mask);
    out[i] = prev;
  }
  for (; i < n; ++i, bit += w) {
    const size_t byte = bit >> 3;
    const size_t avail = stream_bytes - byte;
    const uint64_t word =
        Load64LETail(payload + byte, avail < 8 ? avail : 8);
    prev += static_cast<uint32_t>((word >> (bit & 7)) & mask);
    out[i] = prev;
  }
}

void UnpackScalar(const uint8_t* payload, const uint8_t* stream_end,
                  size_t n, uint32_t w, uint32_t base, uint32_t* out) {
  UnpackScalarFrom(payload, stream_end, 0, n, w, base, out);
}

#if defined(__SSE4_1__)
/// SSE4.1 kernel, 4 gaps per step for widths 1..16: one unaligned
/// 16-byte load covers the group (4w + 32 bits <= 96 < 128 even at the
/// worst bit phase), _mm_shuffle_epi8 places each gap's 4-byte window
/// into its lane, a per-lane left shift emulated by _mm_mullo_epi32
/// aligns the gap to the lane top, a constant right shift extracts it,
/// and an in-register shift-add prefix sum restores absolute doc ids.
/// Group bit phase is (g*4w) % 8: 0 always for even w, alternating 0/4
/// for odd w — both variants' shuffle masks and multipliers are built
/// once per block.
void UnpackSse41(const uint8_t* payload, const uint8_t* stream_end,
                 size_t n, uint32_t w, uint32_t base, uint32_t* out) {
  if (w == 0 || w > 16) {
    UnpackScalar(payload, stream_end, n, w, base, out);
    return;
  }
  const size_t stream_bytes = static_cast<size_t>(stream_end - payload);
  __m128i shuf[2], mult[2];
  for (int phase = 0; phase < 2; ++phase) {
    const uint32_t p = static_cast<uint32_t>(phase * 4);
    alignas(16) uint8_t sm[16];
    alignas(16) uint32_t mm[4];
    for (uint32_t j = 0; j < 4; ++j) {
      const uint32_t off = p + j * w;
      const uint8_t b = static_cast<uint8_t>(off >> 3);
      for (uint32_t c = 0; c < 4; ++c) sm[j * 4 + c] = b + c;
      mm[j] = uint32_t{1} << (32 - w - (off & 7));
    }
    shuf[phase] = _mm_load_si128(reinterpret_cast<const __m128i*>(sm));
    mult[phase] = _mm_load_si128(reinterpret_cast<const __m128i*>(mm));
  }
  const int drop = static_cast<int>(32 - w);
  __m128i run = _mm_set1_epi32(static_cast<int>(base));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint64_t bit = static_cast<uint64_t>(i) * w;
    const size_t gb = bit >> 3;
    if (gb + 16 > stream_bytes) break;  // scalar tail below
    const int phase = (bit & 7) ? 1 : 0;
    __m128i v = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(payload + gb));
    v = _mm_shuffle_epi8(v, shuf[phase]);
    v = _mm_mullo_epi32(v, mult[phase]);
    v = _mm_srli_epi32(v, drop);
    // Prefix-sum the 4 gaps, then add the running absolute id.
    v = _mm_add_epi32(v, _mm_slli_si128(v, 4));
    v = _mm_add_epi32(v, _mm_slli_si128(v, 8));
    v = _mm_add_epi32(v, run);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), v);
    run = _mm_shuffle_epi32(v, _MM_SHUFFLE(3, 3, 3, 3));
  }
  if (i < n) {
    // The tail may start mid-byte for odd w; the scalar helper takes
    // the exact bit position.
    const uint32_t prev =
        i == 0 ? base : static_cast<uint32_t>(_mm_cvtsi128_si32(run));
    UnpackScalarFrom(payload, stream_end, static_cast<uint64_t>(i) * w,
                     n - i, w, prev, out + i);
  }
}
#endif  // __SSE4_1__

/// Strongest kernel this binary AND this CPU can run — what undirected
/// decodes use, and the ceiling SetBitpackKernelOverride validates
/// against.
BitpackKernel DetectKernel() {
#if defined(__SSE4_1__) && defined(__GNUC__)
  if (__builtin_cpu_supports("sse4.1")) return BitpackKernel::kSse41;
#endif
  return BitpackKernel::kScalar;
}

/// -1 = no override; otherwise the forced kernel's enum value.
std::atomic<int> g_kernel_override{-1};

bool KernelCompiled(BitpackKernel k) {
  switch (k) {
    case BitpackKernel::kScalar:
      return true;
    case BitpackKernel::kSse41:
#if defined(__SSE4_1__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

const char* BitpackKernelName(BitpackKernel k) {
  switch (k) {
    case BitpackKernel::kScalar:
      return "scalar";
    case BitpackKernel::kSse41:
      return "sse41";
  }
  return "unknown";
}

std::vector<BitpackKernel> CompiledBitpackKernels() {
  std::vector<BitpackKernel> out;
#if defined(__SSE4_1__)
  out.push_back(BitpackKernel::kSse41);
#endif
  out.push_back(BitpackKernel::kScalar);
  return out;
}

BitpackKernel ActiveBitpackKernel() {
  const int forced = g_kernel_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<BitpackKernel>(forced);
  static const BitpackKernel preferred = DetectKernel();
  return preferred;
}

bool SetBitpackKernelOverride(BitpackKernel k) {
  if (!KernelCompiled(k)) return false;
  // A compiled kernel must also run on this CPU: the detected kernel is
  // the strongest supported ISA, so anything at or below it is safe.
  if (static_cast<int>(k) > static_cast<int>(DetectKernel())) {
    return false;
  }
  g_kernel_override.store(static_cast<int>(k), std::memory_order_relaxed);
  return true;
}

void ClearBitpackKernelOverride() {
  g_kernel_override.store(-1, std::memory_order_relaxed);
}

size_t BitpackEncodedSize(size_t n, uint32_t width) {
  return 1 + (n * static_cast<size_t>(width) + 7) / 8;
}

void EncodeBitpackBlock(const uint32_t* docs, size_t n, uint32_t base,
                        std::vector<uint8_t>* out) {
  // Width = bit width of the largest gap; OR-folding the gaps gives the
  // same top bit without tracking a max.
  uint32_t prev = base;
  uint32_t folded = 0;
  for (size_t i = 0; i < n; ++i) {
    folded |= docs[i] - prev;
    prev = docs[i];
  }
  const uint32_t w =
      folded == 0 ? 0 : 32 - static_cast<uint32_t>(__builtin_clz(folded));
  out->reserve(out->size() + BitpackEncodedSize(n, w));
  out->push_back(static_cast<uint8_t>(w));
  if (w == 0) return;
  uint64_t acc = 0;
  uint32_t acc_bits = 0;
  prev = base;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t gap = docs[i] - prev;
    prev = docs[i];
    acc |= gap << acc_bits;  // acc_bits < 8, so gap never shifts past 39
    acc_bits += w;
    while (acc_bits >= 8) {
      out->push_back(static_cast<uint8_t>(acc));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) out->push_back(static_cast<uint8_t>(acc));
}

size_t DecodeBitpackBlockWith(BitpackKernel kernel, const uint8_t* p,
                              const uint8_t* end, size_t n, uint32_t base,
                              uint32_t* out) {
  if (p >= end) return 0;                       // no width byte
  const uint32_t w = *p;
  if (w > 32) return 0;                         // hostile width
  const size_t need = (n * static_cast<size_t>(w) + 7) / 8;
  if (static_cast<size_t>(end - p) < 1 + need) return 0;  // truncated
  const uint8_t* payload = p + 1;
  // Kernels may look at any byte up to `end` (all within the caller's
  // buffer) but the decoded values depend only on the `need` payload
  // bytes, so the consumed size — and the output — is exact.
  switch (kernel) {
#if defined(__SSE4_1__)
    case BitpackKernel::kSse41:
      UnpackSse41(payload, end, n, w, base, out);
      break;
#endif
    default:
      UnpackScalar(payload, end, n, w, base, out);
      break;
  }
  return 1 + need;
}

size_t DecodeBitpackBlock(const uint8_t* p, const uint8_t* end, size_t n,
                          uint32_t base, uint32_t* out) {
  return DecodeBitpackBlockWith(ActiveBitpackKernel(), p, end, n, base, out);
}

}  // namespace index
}  // namespace deepsurf
