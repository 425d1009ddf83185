#pragma once

// Shared little-endian binary codec for Glint's on-disk formats (dataset
// store, model files, drift statistics, WAL records, snapshots, replay
// logs) and wire frames. ByteWriter appends into a
// growable buffer; ByteReader consumes a borrowed buffer and reports
// truncation via bool returns (callers convert to Status at the format
// boundary). Neither owns a file: I/O and checksumming live with the
// format, the codec is layout only.
//
// A layout is written once, as one field list: a function template over
// the direction, run by a LayoutWriter to encode and a LayoutReader to
// decode, so the two directions cannot disagree:
//
//   template <class IO, class M>  // M = const Msg (encode) or Msg (decode)
//   bool MsgFields(IO& io, M& m) {
//     return io.U32(m.deadline_ms) && io.Str(m.home) &&
//            io.List(m.rules, kRuleList,
//                    [&io](auto& r) { return rules::RuleFields(io, r); });
//   }

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace glint::util {

// The codec is raw host memory order; the documented little-endian layout
// therefore holds only on little-endian hosts. Pin that at compile time so
// a big-endian port fails loudly here instead of silently writing files
// and wire frames other hosts cannot read.
static_assert(std::endian::native == std::endian::little,
              "glint's binary formats assume a little-endian host; port "
              "ByteWriter/ByteReader to explicit byte order first");

class ByteWriter {
 public:
  void U8(uint8_t v) { Raw(&v, sizeof v); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void I32(int32_t v) { Raw(&v, sizeof v); }
  void F32(float v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* p, size_t n) {
    const char* c = static_cast<const char*>(p);
    buf_.insert(buf_.end(), c, c + n);
  }

  /// Overwrites the u32 at byte `pos` (already written), e.g. a length
  /// reserved before the bytes it counts were appended.
  void U32At(size_t pos, uint32_t v) {
    GLINT_CHECK(pos + sizeof v <= buf_.size());
    std::memcpy(buf_.data() + pos, &v, sizeof v);
  }

  const std::vector<char>& buffer() const { return buf_; }
  std::vector<char> TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  std::vector<char> buf_;
};

class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<char>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  bool U8(uint8_t* v) { return Raw(v, sizeof *v); }
  bool U32(uint32_t* v) { return Raw(v, sizeof *v); }
  bool U64(uint64_t* v) { return Raw(v, sizeof *v); }
  bool I32(int32_t* v) { return Raw(v, sizeof *v); }
  bool F32(float* v) { return Raw(v, sizeof *v); }
  bool F64(double* v) { return Raw(v, sizeof *v); }
  bool Str(std::string* s) {
    uint32_t n;
    if (!U32(&n) || n > size_ - pos_) return false;
    s->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }
  [[gnu::always_inline]] bool Raw(void* p, size_t n) {
    if (n > size_ - pos_) return false;
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// A counted list in a layout: u32 count, then the elements.
struct ListBound {
  const char* what;  ///< element name for decode errors ("rule")
  /// Smallest encoding of one element. A decoded count whose elements
  /// could not fit in the bytes left at this size each is refused before
  /// anything is allocated for it.
  size_t min_bytes;
  bool nonempty = false;
  uint32_t max = UINT32_MAX;
};

/// Encoding direction of a field list: every call appends to the
/// ByteWriter and returns true.
class LayoutWriter {
 public:
  explicit LayoutWriter(ByteWriter* w) : w_(w) {}

  bool U8(uint8_t v) { w_->U8(v); return true; }
  bool U32(uint32_t v) { w_->U32(v); return true; }
  bool U64(uint64_t v) { w_->U64(v); return true; }
  bool I32(int32_t v) { w_->I32(v); return true; }
  bool F32(float v) { w_->F32(v); return true; }
  bool F64(double v) { w_->F64(v); return true; }
  bool Str(const std::string& s) { w_->Str(s); return true; }
  /// A u32 the layout fixes (a magic number, a format version).
  bool Const32(uint32_t v, const char* /*what*/) { return U32(v); }
  /// `n` f32s with no count of their own (another field implies it).
  template <class V>
  bool F32s(const V& v, int64_t n) {
    GLINT_CHECK(v.size() == static_cast<uint64_t>(n));
    w_->Raw(v.data(), sizeof(float) * v.size());
    return true;
  }
  /// bool as one byte 0/1.
  bool Bool8(bool v) { return U8(v ? 1 : 0); }
  /// bool as an i32 0/1.
  bool Bool32(bool v) { return I32(v ? 1 : 0); }
  /// A reserved i32 slot, always 0.
  bool Zero32() { return I32(0); }
  /// Enum as its i32 value, one of the enum's `count` values [0, count).
  /// A value outside them is the caller's contract broken: it aborts.
  template <class E>
  bool Enum32(E v, int count) {
    const int32_t i = static_cast<int32_t>(v);
    GLINT_CHECK(i >= 0 && i < count);
    return I32(i);
  }
  /// Writes the count, then `each` element. The bound's limits are the
  /// caller's contract: a list outside them aborts.
  template <class T, class Each>
  bool List(const std::vector<T>& v, const ListBound& bound, Each&& each) {
    GLINT_CHECK(v.size() <= bound.max && (!bound.nonempty || !v.empty()));
    U32(static_cast<uint32_t>(v.size()));
    for (const T& x : v) each(x);
    return true;
  }

 private:
  ByteWriter* w_;
};

/// Decoding direction of a field list: every call consumes from the
/// ByteReader and returns false on truncation or a refused count. The
/// primitives are forced inline (as is ByteReader::Raw): a field list
/// inlines every field into one function, and past GCC's growth limits
/// it would call them out of line instead, which made rule decode ~20%
/// slower than hand-written readers.
class LayoutReader {
 public:
  explicit LayoutReader(ByteReader* r) : r_(r) {}

  [[gnu::always_inline]] bool U8(uint8_t& v) { return r_->U8(&v); }
  [[gnu::always_inline]] bool U32(uint32_t& v) { return r_->U32(&v); }
  [[gnu::always_inline]] bool U64(uint64_t& v) { return r_->U64(&v); }
  [[gnu::always_inline]] bool I32(int32_t& v) { return r_->I32(&v); }
  [[gnu::always_inline]] bool F32(float& v) { return r_->F32(&v); }
  [[gnu::always_inline]] bool F64(double& v) { return r_->F64(&v); }
  [[gnu::always_inline]] bool Str(std::string& s) { return r_->Str(&s); }
  /// A u32 the layout fixes: any other value is refused.
  bool Const32(uint32_t v, const char* what) {
    uint32_t got = 0;
    if (!r_->U32(&got)) return false;
    if (got != v) return Refuse(what, got);
    return true;
  }
  /// `n` f32s; a negative `n`, or more than the bytes left can hold, is
  /// refused before anything is allocated for them.
  template <class V>
  bool F32s(V& v, int64_t n) {
    if (n < 0 || static_cast<uint64_t>(n) > r_->remaining() / sizeof(float)) {
      return Fail(std::to_string(n) + " floats exceed payload");
    }
    v.resize(static_cast<size_t>(n));
    // No copy for none: memcpy's pointers may not be null, and an empty
    // vector's data() can be.
    return n == 0 || r_->Raw(v.data(), sizeof(float) * v.size());
  }
  /// A bool is 0 or 1; any other value is refused, so every accepted
  /// encoding is the one the writer produces.
  [[gnu::always_inline]] bool Bool8(bool& v) {
    uint8_t b = 0;
    if (!r_->U8(&b)) return false;
    if (b > 1) return Refuse("bool byte", b);
    v = b != 0;
    return true;
  }
  [[gnu::always_inline]] bool Bool32(bool& v) {
    int32_t b = 0;
    if (!r_->I32(&b)) return false;
    if (b != 0 && b != 1) return Refuse("bool", b);
    v = b != 0;
    return true;
  }
  /// A reserved i32 slot: anything but 0 is refused.
  [[gnu::always_inline]] bool Zero32() {
    int32_t b = 0;
    if (!r_->I32(&b)) return false;
    if (b != 0) return Refuse("reserved field", b);
    return true;
  }
  /// An enum of `count` values [0, count); any other i32 is refused, so
  /// a decoded enum always names one of its enumerators.
  template <class E>
  [[gnu::always_inline]] bool Enum32(E& v, int count) {
    int32_t i = 0;
    if (!r_->I32(&i)) return false;
    if (i < 0 || i >= count) return Refuse("enum", i);
    v = static_cast<E>(i);
    return true;
  }
  /// Reads the count, refuses one outside the bound or larger than the
  /// bytes left can hold, then decodes `each` element.
  template <class T, class Each>
  bool List(std::vector<T>& v, const ListBound& bound, Each&& each) {
    uint32_t n = 0;
    if (!r_->U32(&n)) return false;
    if (bound.nonempty && n == 0) {
      return Fail(std::string("empty ") + bound.what + " list");
    }
    if (n > bound.max) {
      return Fail(std::to_string(n) + " " + bound.what + "s exceeds max " +
                  std::to_string(bound.max));
    }
    if (uint64_t{n} * bound.min_bytes > r_->remaining()) {
      return Fail(std::string(bound.what) + " count exceeds payload");
    }
    v.resize(n);
    for (T& x : v) {
      if (!each(x)) return Fail(std::string("truncated ") + bound.what);
    }
    return true;
  }

  /// Why decoding failed: the innermost list's complaint, or "" when a
  /// field outside any list was cut off.
  const std::string& error() const { return error_; }

 private:
  bool Fail(std::string why) {
    if (error_.empty()) error_ = std::move(why);
    return false;
  }
  /// Fails on a field that decoded to a value its layout never writes.
  [[gnu::cold]] bool Refuse(const char* field, int64_t value) {
    return Fail(std::string(field) + " is " + std::to_string(value));
  }

  ByteReader* r_;
  std::string error_;
};

/// Decodes all of `bytes` with `fields`, a callable run on a LayoutReader:
/// InvalidArgument "`what`: why" when the field list fails or bytes are
/// left over.
template <class Fields>
Status DecodeAll(const std::vector<char>& bytes, const std::string& what,
                 Fields&& fields) {
  ByteReader r(bytes);
  LayoutReader io(&r);
  if (!fields(io)) {
    return Status::InvalidArgument(
        what + ": " + (io.error().empty() ? "truncated" : io.error()));
  }
  if (!r.exhausted()) return Status::InvalidArgument(what + ": trailing bytes");
  return Status::OK();
}

/// Encodes with `fields`, a callable run on a LayoutWriter.
template <class Fields>
std::vector<char> EncodeAll(Fields&& fields) {
  ByteWriter w;
  LayoutWriter io(&w);
  fields(io);
  return w.TakeBuffer();
}

}  // namespace glint::util
