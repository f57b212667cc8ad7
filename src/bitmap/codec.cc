#include "bitmap/codec.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace rankcube {

namespace {

// Bits needed to represent integer i (>= 1 bit).
int GammaValueBits(uint64_t i) { return std::max(1, Log2Ceil(i + 1)); }

// Gamma-style run code (§4.2.2): (bits-1) ones, a zero, then i in `bits`.
void AppendGamma(uint64_t i, BitVector* out) {
  int bits = GammaValueBits(i);
  for (int b = 0; b < bits - 1; ++b) out->PushBit(true);
  out->PushBit(false);
  out->AppendBits(i, bits);
}

// Reads an `nbits` field into *v unless it would cross bit `end`.
bool ReadField(BitReader* reader, size_t end, int nbits, uint64_t* v) {
  if (reader->pos() + static_cast<size_t>(nbits) > end) return false;
  *v = reader->Read(nbits);
  return true;
}

Status Overrun() {
  return Status::Corruption("field crosses the end of its coding region");
}

// Reads one gamma run code unless it would cross bit `end` or overflow.
bool ReadGamma(BitReader* reader, size_t end, uint64_t* v) {
  int bits = 1;
  for (;;) {
    if (reader->pos() >= end || bits > 64) return false;
    if (!reader->ReadBit()) break;
    ++bits;
  }
  return ReadField(reader, end, bits, v);
}

int PosBits(int M) { return std::max(1, Log2Ceil(static_cast<uint64_t>(M))); }

int LenBits(int M) {
  return Log2Ceil(static_cast<uint64_t>(2 * M + 2));
}

// Positions of bits with value `v` in arr.
std::vector<uint32_t> Positions(const BitVector& arr, bool v) {
  std::vector<uint32_t> pos;
  for (size_t i = 0; i < arr.size(); ++i) {
    if (arr.Get(i) == v) pos.push_back(static_cast<uint32_t>(i));
  }
  return pos;
}

// Optimal prefix length for PC coding: p = log2(2^n / (n ln 2)) (§4.2.2).
int PcPrefixLen(int n) {
  double p = std::log2(std::pow(2.0, n) / (n * std::log(2.0)));
  int pi = static_cast<int>(std::lround(p));
  return std::min(n - 1, std::max(1, pi));
}

// Builds only the coding region for `scheme`; returns false when the scheme
// cannot represent the array (e.g. PI-sparse of an all-zero array).
bool BuildRegion(const BitVector& arr, int M, CodecScheme scheme,
                 BitVector* region) {
  const int pos_bits = PosBits(M);
  const size_t L = arr.size();
  switch (scheme) {
    case CodecScheme::kBaseline: {
      size_t keep = std::max<size_t>(1, arr.LastOnePlusOne());
      keep = std::min(keep, L == 0 ? size_t{1} : L);
      if (L == 0) {
        region->PushBit(false);
        return true;
      }
      for (size_t i = 0; i < keep; ++i) region->PushBit(arr.Get(i));
      return true;
    }
    case CodecScheme::kPiSparse: {
      auto pos = Positions(arr, true);
      if (pos.empty()) return false;
      for (uint32_t p : pos) region->AppendBits(p, pos_bits);
      return true;
    }
    case CodecScheme::kPiDense: {
      if (L == 0) return false;
      auto pos = Positions(arr, false);
      region->AppendBits(L - 1, pos_bits);  // original length (one-less)
      for (uint32_t p : pos) region->AppendBits(p, pos_bits);
      return true;
    }
    case CodecScheme::kRlSparse: {
      auto pos = Positions(arr, true);
      if (pos.empty()) return false;
      uint64_t prev = 0;
      for (uint32_t p : pos) {
        AppendGamma(p - prev, region);  // i zeros then a one
        prev = p + 1;
      }
      return true;
    }
    case CodecScheme::kRlDense: {
      if (L == 0) return false;
      region->AppendBits(L - 1, pos_bits);
      // Runs of (i ones, then a zero) over arr + one artificial trailing 0.
      size_t i = 0;
      uint64_t ones = 0;
      for (; i < L; ++i) {
        if (arr.Get(i)) {
          ++ones;
        } else {
          AppendGamma(ones, region);
          ones = 0;
        }
      }
      AppendGamma(ones, region);  // run terminated by the artificial 0
      return true;
    }
    case CodecScheme::kPcSparse:
    case CodecScheme::kPcDense: {
      bool dense = scheme == CodecScheme::kPcDense;
      auto pos = Positions(arr, !dense);
      if (dense) {
        if (L == 0) return false;
        region->AppendBits(L - 1, pos_bits);
      } else if (pos.empty()) {
        return false;
      }
      const int n = pos_bits;
      const int p = PcPrefixLen(n);
      const int suffix_bits = n - p;
      size_t i = 0;
      while (i < pos.size()) {
        uint32_t prefix = pos[i] >> suffix_bits;
        size_t j = i;
        while (j < pos.size() && (pos[j] >> suffix_bits) == prefix) ++j;
        size_t count = j - i;
        // A group can hold at most 2^suffix_bits suffixes (one-less coded);
        // split oversized groups.
        size_t cap = size_t{1} << suffix_bits;
        size_t take = std::min(count, cap);
        region->AppendBits(prefix, p);
        region->AppendBits(take - 1, suffix_bits);
        for (size_t t = 0; t < take; ++t) {
          region->AppendBits(pos[i + t] & ((1u << suffix_bits) - 1),
                             suffix_bits);
        }
        i += take;
      }
      return true;
    }
  }
  return false;
}

// Every scheme, in the order the adaptive choice tries them.
constexpr CodecScheme kSchemes[] = {
    CodecScheme::kBaseline, CodecScheme::kPiSparse, CodecScheme::kPiDense,
    CodecScheme::kRlSparse, CodecScheme::kRlDense,  CodecScheme::kPcSparse,
    CodecScheme::kPcDense,
};

// What the coding regions of a node's schemes are sized by, from one pass
// over its bits.
struct NodeCounts {
  int M = 2;
  size_t pos_bits = 1;
  size_t suffix_bits = 0;    // PC: position bits after the prefix
  size_t len = 0;            // L: the bit-array length, not M
  size_t last_one_plus_one = 0;
  size_t ones = 0;
  size_t zeros = 0;
  size_t gap_bits = 0;       // RL sparse: a gamma code per one
  size_t run_bits = 0;       // RL dense: a gamma code per zero-ended run
  size_t one_prefixes = 0;   // PC sparse: groups of ones
  size_t zero_prefixes = 0;  // PC dense: groups of zeros
};

NodeCounts CountNode(const BitVector& arr, int M) {
  NodeCounts c;
  c.M = M;
  c.pos_bits = static_cast<size_t>(PosBits(M));
  c.suffix_bits = c.pos_bits - static_cast<size_t>(PcPrefixLen(PosBits(M)));
  c.len = arr.size();
  size_t gap = 0;  // zeros since the last one
  size_t run = 0;  // ones since the last zero
  size_t one_prefix = SIZE_MAX;
  size_t zero_prefix = SIZE_MAX;
  for (size_t i = 0; i < c.len; ++i) {
    // Positions come in order, and a prefix holds at most 2^suffix_bits of
    // them, so each new prefix starts exactly one PC group.
    const size_t prefix = i >> c.suffix_bits;
    if (arr.Get(i)) {
      ++c.ones;
      c.last_one_plus_one = i + 1;
      c.gap_bits += 2 * GammaValueBits(gap);
      gap = 0;
      ++run;
      if (prefix != one_prefix) ++c.one_prefixes;
      one_prefix = prefix;
    } else {
      ++c.zeros;
      c.run_bits += 2 * GammaValueBits(run);
      run = 0;
      ++gap;
      if (prefix != zero_prefix) ++c.zero_prefixes;
      zero_prefix = prefix;
    }
  }
  c.run_bits += 2 * GammaValueBits(run);  // ended by the artificial 0
  return c;
}

// Length of the coding region BuildRegion builds for `scheme`, or 0 when the
// scheme cannot represent the node.
size_t RegionBits(const NodeCounts& c, CodecScheme scheme) {
  switch (scheme) {
    case CodecScheme::kBaseline:
      return std::max<size_t>(1, c.last_one_plus_one);
    case CodecScheme::kPiSparse:
      return c.ones * c.pos_bits;
    case CodecScheme::kPiDense:
      return c.len == 0 ? 0 : (1 + c.zeros) * c.pos_bits;
    case CodecScheme::kRlSparse:
      return c.ones == 0 ? 0 : c.gap_bits;
    case CodecScheme::kRlDense:
      return c.len == 0 ? 0 : c.pos_bits + c.run_bits;
    case CodecScheme::kPcSparse:
      // Each group: prefix and count fields, then one suffix per position.
      return c.one_prefixes * c.pos_bits + c.ones * c.suffix_bits;
    case CodecScheme::kPcDense:
      return c.len == 0 ? 0
                        : c.pos_bits + c.zero_prefixes * c.pos_bits +
                              c.zeros * c.suffix_bits;
  }
  return 0;
}

// EncodeNodeWith's length, its fallback to BL included.
size_t NodeBitsOf(const NodeCounts& c, CodecScheme scheme) {
  size_t region = RegionBits(c, scheme);
  if (region == 0 || region > (size_t{1} << LenBits(c.M))) {
    region = RegionBits(c, CodecScheme::kBaseline);
  }
  return NodeHeaderBits(c.M) + region;
}

// The adaptive code: the first scheme of kSchemes with the shortest code.
struct AdaptiveChoice {
  CodecScheme scheme = CodecScheme::kBaseline;
  size_t bits = SIZE_MAX;
};

AdaptiveChoice ChooseScheme(const NodeCounts& c) {
  AdaptiveChoice best;
  for (CodecScheme s : kSchemes) {
    const size_t bits = NodeBitsOf(c, s);
    if (bits < best.bits) best = {s, bits};
  }
  return best;
}

}  // namespace

size_t NodeBits(const BitVector& arr, int M, CodecScheme scheme) {
  return NodeBitsOf(CountNode(arr, M), scheme);
}

size_t AdaptiveNodeBits(const BitVector& arr, int M) {
  return ChooseScheme(CountNode(arr, M)).bits;
}

int Log2Ceil(uint64_t x) {
  return x <= 1 ? 0 : static_cast<int>(std::bit_width(x - 1));
}

size_t NodeHeaderBits(int M) { return 3 + LenBits(M); }

size_t EncodeNodeWith(const BitVector& arr, int M, CodecScheme scheme,
                      BitVector* out) {
  assert(M >= 2);
  BitVector region;
  bool ok = BuildRegion(arr, M, scheme, &region);
  const size_t max_region = (size_t{1} << LenBits(M));
  if (!ok || region.empty() || region.size() > max_region) {
    scheme = CodecScheme::kBaseline;
    region = BitVector();
    BuildRegion(arr, M, CodecScheme::kBaseline, &region);
  }
  size_t before = out->size();
  out->AppendBits(static_cast<uint64_t>(scheme), 3);
  out->AppendBits(region.size() - 1, LenBits(M));  // one-less principle
  out->AppendVector(region);
  return out->size() - before;
}

size_t EncodeNodeAdaptive(const BitVector& arr, int M, BitVector* out) {
  return EncodeNodeWith(arr, M, ChooseScheme(CountNode(arr, M)).scheme, out);
}

Status DecodeNode(BitReader* reader, int M, BitVector* out) {
  const int pos_bits = PosBits(M);
  if (reader->remaining() < NodeHeaderBits(M)) {
    return Status::Corruption("bit stream ends inside a node header");
  }
  auto scheme = static_cast<CodecScheme>(reader->Read(3));
  size_t region_len = static_cast<size_t>(reader->Read(LenBits(M))) + 1;
  if (reader->remaining() < region_len) {
    return Status::Corruption("bit stream ends inside a coding region");
  }
  // Every read below stays inside the region; a field crossing its end is
  // malformed.
  const size_t region_end = reader->pos() + region_len;
  uint64_t v = 0;

  *out = BitVector(static_cast<size_t>(M), false);
  switch (scheme) {
    case CodecScheme::kBaseline: {
      for (size_t i = 0; i < region_len; ++i) {
        bool b = reader->ReadBit();
        if (i < out->size()) out->Set(i, b);
      }
      return Status::OK();
    }
    case CodecScheme::kPiSparse: {
      if (region_len % pos_bits != 0) {
        return Status::Corruption("PI region not position-aligned");
      }
      for (size_t i = 0; i < region_len / pos_bits; ++i) {
        out->Set(reader->Read(pos_bits) % M, true);
      }
      return Status::OK();
    }
    case CodecScheme::kPiDense: {
      if (!ReadField(reader, region_end, pos_bits, &v)) return Overrun();
      size_t L = static_cast<size_t>(v) + 1;
      for (size_t i = 0; i < std::min(L, out->size()); ++i) out->Set(i, true);
      while (reader->pos() < region_end) {
        if (!ReadField(reader, region_end, pos_bits, &v)) return Overrun();
        out->Set(v % M, false);
      }
      return Status::OK();
    }
    case CodecScheme::kRlSparse: {
      size_t p = 0;
      while (reader->pos() < region_end) {
        if (!ReadGamma(reader, region_end, &v)) return Overrun();
        p += v;
        if (p >= out->size()) break;
        out->Set(p, true);
        ++p;
      }
      return Status::OK();
    }
    case CodecScheme::kRlDense: {
      if (!ReadField(reader, region_end, pos_bits, &v)) return Overrun();
      size_t L = static_cast<size_t>(v) + 1;
      size_t p = 0;
      while (reader->pos() < region_end && p <= L) {
        uint64_t ones = 0;
        if (!ReadGamma(reader, region_end, &ones)) return Overrun();
        for (uint64_t i = 0; i < ones && p < out->size(); ++i) {
          out->Set(p++, true);
        }
        ++p;  // the zero terminating this run
      }
      return Status::OK();
    }
    case CodecScheme::kPcSparse:
    case CodecScheme::kPcDense: {
      bool dense = scheme == CodecScheme::kPcDense;
      size_t L = static_cast<size_t>(M);
      if (dense) {
        if (!ReadField(reader, region_end, pos_bits, &v)) return Overrun();
        L = static_cast<size_t>(v) + 1;
        for (size_t i = 0; i < std::min(L, out->size()); ++i) {
          out->Set(i, true);
        }
      }
      const int n = pos_bits;
      const int p = PcPrefixLen(n);
      const int suffix_bits = n - p;
      while (reader->pos() < region_end) {
        uint64_t prefix = 0;
        if (!ReadField(reader, region_end, p, &prefix) ||
            !ReadField(reader, region_end, suffix_bits, &v)) {
          return Overrun();
        }
        size_t count = static_cast<size_t>(v) + 1;
        for (size_t i = 0; i < count; ++i) {
          uint64_t suffix = 0;
          if (!ReadField(reader, region_end, suffix_bits, &suffix)) {
            return Overrun();
          }
          size_t position = ((prefix << suffix_bits) | suffix) % M;
          out->Set(position, !dense);
        }
      }
      return Status::OK();
    }
  }
  return Status::Corruption("unknown coding scheme");
}

}  // namespace rankcube
