// Little-endian binary encoding helpers and CRC32 for the persistence layer
// (service/journal.hpp, service/snapshot.hpp).
//
// Columns and POD receipts are dumped as raw bytes (the SoA label arrays are
// exactly the on-disk layout we want), so the format is native-endian by
// construction; the static_assert below pins the library to little-endian
// hosts, which is every target we build for.  Integrity is end-to-end: both
// file formats frame their payload with a CRC32 and a version stamp, so a
// torn or foreign file is detected before any field is trusted.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace mpcmst {

static_assert(std::endian::native == std::endian::little,
              "persistence formats assume a little-endian host");

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — the standard zlib CRC.
inline const std::array<std::uint32_t, 256>& crc32_table() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  return table;
}

inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t crc = 0) {
  const auto& table = crc32_table();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i)
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  return ~crc;
}

/// Append-only byte buffer with typed writers.  Vectors of trivially
/// copyable records are written as a u64 count plus the raw element bytes
/// (bulk memcpy — the SoA columns serialize at memory-bandwidth speed).
class ByteWriter {
 public:
  void u8(std::uint8_t x) { buf_.push_back(x); }
  void u32(std::uint32_t x) { bytes(&x, sizeof x); }
  void u64(std::uint64_t x) { bytes(&x, sizeof x); }
  void i64(std::int64_t x) { bytes(&x, sizeof x); }

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }

  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }

  const std::vector<unsigned char>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  /// Hand the buffer over without a copy (the writer is spent afterwards).
  std::vector<unsigned char> take() && { return std::move(buf_); }

 private:
  std::vector<unsigned char> buf_;
};

/// Bounds-checked mirror of ByteWriter.  Reads past the end return zero
/// values and latch ok() to false — callers validate once at the end, so a
/// truncated payload can never fabricate a partially-parsed object.
class ByteReader {
 public:
  ByteReader(const void* p, std::size_t n)
      : p_(static_cast<const unsigned char*>(p)), end_(p_ + n) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  std::uint8_t u8() {
    std::uint8_t x = 0;
    bytes(&x, sizeof x);
    return x;
  }
  std::uint32_t u32() {
    std::uint32_t x = 0;
    bytes(&x, sizeof x);
    return x;
  }
  std::uint64_t u64() {
    std::uint64_t x = 0;
    bytes(&x, sizeof x);
    return x;
  }
  std::int64_t i64() {
    std::int64_t x = 0;
    bytes(&x, sizeof x);
    return x;
  }

  void bytes(void* out, std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, p_, n);
    p_ += n;
  }

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    bytes(&v, sizeof v);
    return v;
  }

  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = u64();
    // Reject counts the payload cannot possibly hold before allocating.
    if (!ok_ || count > remaining() / sizeof(T)) {
      ok_ = false;
      return {};
    }
    std::vector<T> v(static_cast<std::size_t>(count));
    if (count) bytes(v.data(), v.size() * sizeof(T));
    return v;
  }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
  bool ok_ = true;
};

}  // namespace mpcmst
