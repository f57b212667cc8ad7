// Node-level lossless signature compression (§4.2.2).
//
// A signature node is a bit array of at most M bits (M = R-tree fanout).
// Each node is encoded with the unified structure of Fig 4.4:
//     CS (3 bits) | Len (len_bits) | coding region
// where CS selects the scheme:
//     000 BL  baseline: zero-truncated raw bits
//     01s PI  position index (positions of 1s, or of 0s in the dense variant)
//     10s RL  run-length (gamma-coded runs)
//     11s PC  prefix compression (grouped position index)
// and s = 0 sparse (code 1s) / 1 dense (code 0s). The Len field stores the
// coding-region length using the one-less principle. Dense variants prepend
// the original array length (log2ceil(M) bits) so trailing 1s are
// recoverable; the encoder appends the artificial trailing 0 required by the
// dense run-length scheme (§4.2.2).
//
// The signature uses only the lengths: NodeBits and AdaptiveNodeBits compute
// them from a node's ones, zeros and runs without building any encoding.
// EncodeNodeWith, EncodeNodeAdaptive and DecodeNode serve tests: they are the
// reference those lengths are checked against.
#ifndef RANKCUBE_BITMAP_CODEC_H_
#define RANKCUBE_BITMAP_CODEC_H_

#include <cstdint>

#include "bitmap/bitvector.h"
#include "common/status.h"

namespace rankcube {

/// Coding scheme selector (3-bit CS field).
enum class CodecScheme : uint8_t {
  kBaseline = 0b000,
  kPiSparse = 0b010,
  kPiDense = 0b011,
  kRlSparse = 0b100,
  kRlDense = 0b101,
  kPcSparse = 0b110,
  kPcDense = 0b111,
};

/// Number of bits of ceil(log2(x)) for x >= 1.
int Log2Ceil(uint64_t x);

/// Encodes `arr` (semantic length arr.size() <= M) with the given scheme and
/// appends the unified node structure to `out`. Returns the number of bits
/// appended.
size_t EncodeNodeWith(const BitVector& arr, int M, CodecScheme scheme,
                      BitVector* out);

/// Encodes `arr` with whichever scheme is smallest (adaptive coding): the
/// scheme AdaptiveNodeBits sizes.
size_t EncodeNodeAdaptive(const BitVector& arr, int M, BitVector* out);

/// Number of bits EncodeNodeWith would append for `arr` (its fallback to
/// BL included), from one pass over the bits and without allocating.
size_t NodeBits(const BitVector& arr, int M, CodecScheme scheme);

/// Number of bits EncodeNodeAdaptive would append: the smallest NodeBits
/// over the schemes.
size_t AdaptiveNodeBits(const BitVector& arr, int M);

/// Decodes one node starting at reader position; the result always has M
/// bits (semantic trailing bits are zero-padded). Returns non-OK on a
/// malformed stream.
Status DecodeNode(BitReader* reader, int M, BitVector* out);

/// Bits the unified header occupies for fanout M (CS + Len fields).
size_t NodeHeaderBits(int M);

}  // namespace rankcube

#endif  // RANKCUBE_BITMAP_CODEC_H_
