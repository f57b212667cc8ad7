// Append-oriented bit array used for signature node bit-arrays and their
// serialized encodings (§4.2.1-§4.2.2).
#ifndef RANKCUBE_BITMAP_BITVECTOR_H_
#define RANKCUBE_BITMAP_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rankcube {

/// Growable bit vector with MSB-first multi-bit append/read helpers.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t nbits, bool value = false);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t SizeBytes() const { return (size_ + 7) / 8; }

  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ull;
  }
  void Set(size_t i, bool v);

  void PushBit(bool v);
  /// Appends the low `nbits` of `value`, most-significant bit first.
  void AppendBits(uint64_t value, int nbits);
  void AppendVector(const BitVector& other);

  /// Reads `nbits` starting at `pos`, most-significant bit first.
  uint64_t ReadBits(size_t pos, int nbits) const;

  /// Number of set bits.
  size_t PopCount() const;
  /// Index one past the last set bit (0 when none are set).
  size_t LastOnePlusOne() const;

  /// Position of the i-th (0-based) set bit, or size() when absent.
  size_t SelectOne(size_t i) const;

  bool operator==(const BitVector& o) const;
  std::string ToString() const;  // e.g. "0110"

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Sequential reader over a BitVector.
class BitReader {
 public:
  explicit BitReader(const BitVector& bv, size_t pos = 0)
      : bv_(bv), pos_(pos) {}

  bool ReadBit() { return bv_.Get(pos_++); }
  uint64_t Read(int nbits) {
    uint64_t v = bv_.ReadBits(pos_, nbits);
    pos_ += nbits;
    return v;
  }
  size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ >= bv_.size(); }
  size_t remaining() const { return AtEnd() ? 0 : bv_.size() - pos_; }

 private:
  const BitVector& bv_;
  size_t pos_;
};

}  // namespace rankcube

#endif  // RANKCUBE_BITMAP_BITVECTOR_H_
