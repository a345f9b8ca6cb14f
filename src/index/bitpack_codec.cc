#include "index/bitpack_codec.h"

#include <cstring>

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

/// Walks a 64-bit window over the horizontal bit stream. A gap at bit
/// position b spans at most bits [b, b+39) (w <= 32, b%8 <= 7), so one
/// aligned-to-byte 64-bit load always covers it — no per-byte
/// continuation branch. `stream_end` bounds every load (the final
/// values assemble their window from the remaining bytes instead of
/// over-reading).
void Unpack(const uint8_t* payload, const uint8_t* stream_end, size_t n,
            uint32_t w, uint32_t base, uint32_t* out) {
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
    const uint64_t cnt = last_safe_bit / w + 1;
    n_fast = cnt < n ? static_cast<size_t>(cnt) : n;
  }
  uint32_t prev = base;
  uint64_t bit = 0;
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

}  // namespace

const char* BitpackKernelName(BitpackKernel k) {
  return k == BitpackKernel::kScalar ? "scalar" : "unknown";
}

BitpackKernel ActiveBitpackKernel() { return BitpackKernel::kScalar; }

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

size_t DecodeBitpackBlock(const uint8_t* p, const uint8_t* end, size_t n,
                          uint32_t base, uint32_t* out) {
  if (p >= end) return 0;                       // no width byte
  const uint32_t w = *p;
  if (w > 32) return 0;                         // hostile width
  const size_t need = (n * static_cast<size_t>(w) + 7) / 8;
  if (static_cast<size_t>(end - p) < 1 + need) return 0;  // truncated
  // Unpack may look at any byte up to `end` (all within the caller's
  // buffer) but the decoded values depend only on the `need` payload
  // bytes, so the consumed size — and the output — is exact.
  Unpack(p + 1, end, n, w, base, out);
  return 1 + need;
}

}  // namespace index
}  // namespace deepsurf
