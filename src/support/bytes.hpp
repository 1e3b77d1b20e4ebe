// Little-endian byte codec: the one place that decides how integers,
// strings and counted lists are laid out in bytes, and how a reader checks
// its bounds.
//
// ByteWriter appends to a caller-owned buffer; ByteReader reads a view and
// latches its first failure. Each field read has a by-reference twin with
// the writer's name, so a layout is written once as a two-way field walk:
//
//   template <typename IO>
//   void fields(IO& io, Walked<IO, Thing>& thing) { io.u64(thing.a); io.str(thing.b); }
//
// encodes through a ByteWriter and decodes through a ByteReader. The
// snapshot sections (replay/binary.cpp), the InstanceSnapshot configuration
// (statechart/engine.hpp), the verifier's state encoding
// (verify/statespace.cpp), the fleet's wire payloads (fleet/handoff.cpp)
// and the checkpoint store's record header (replay/store.cpp) all use it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace umlsoc::support {

/// Appends little-endian fields to a caller-owned buffer, so encoders can
/// reuse one buffer's capacity across encodes.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& buffer) : buffer_(buffer) {}

  void u8(std::uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void u16(std::uint16_t value) { raw(&value, sizeof value); }
  void u32(std::uint32_t value) { raw(&value, sizeof value); }
  void u64(std::uint64_t value) { raw(&value, sizeof value); }
  void i64(std::int64_t value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u8(value ? 1 : 0); }
  /// u32 length + bytes.
  void str(std::string_view value) {
    u32(static_cast<std::uint32_t>(value.size()));
    bytes(value);
  }
  void bytes(std::string_view value) { buffer_.append(value); }
  /// u32 count, then element(*this, item) per item.
  template <typename T, typename Element>
  void list(const std::vector<T>& items, Element element) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const T& item : items) element(*this, item);
  }
  /// One u8 holding an enumerator below `count`.
  template <typename Enum>
  void enumerated(Enum value, std::size_t /*count*/) {
    u8(static_cast<std::uint8_t>(value));
  }
  /// Grows the buffer by `size` bytes and returns where they start, for
  /// fixed-width runs filled with put().
  char* extend(std::size_t size) {
    const std::size_t at = buffer_.size();
    buffer_.resize(at + size);
    return buffer_.data() + at;
  }

  /// Stores `value` little-endian at `out` (no bounds check).
  template <typename T>
  static void put(char* out, T value) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, &value, sizeof value);
    } else {
      for (std::size_t i = 0; i < sizeof value; ++i) {
        out[i] = static_cast<char>(static_cast<std::uint64_t>(value) >> (8 * i));
      }
    }
  }

 private:
  void raw(const void* data, std::size_t size) {
    if constexpr (std::endian::native == std::endian::little) {
      buffer_.append(static_cast<const char*>(data), size);
    } else {
      const auto* first = static_cast<const unsigned char*>(data);
      for (std::size_t i = size; i-- > 0;) buffer_.push_back(static_cast<char>(first[i]));
    }
  }

  std::string& buffer_;
};

/// Bounds-checked reader. The first failure latches `failed()`; subsequent
/// reads return zero so decoders can run to completion and report once.
/// Besides the value-returning reads, every field read has a by-reference
/// twin with ByteWriter's name, so one field walk serves both directions.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    std::uint8_t value = 0;
    raw(&value, 1);
    return value;
  }
  std::uint16_t u16() {
    std::uint16_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::uint32_t u32() {
    std::uint32_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::uint64_t u64() {
    std::uint64_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::int64_t i64() { return std::bit_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }
  void u8(std::uint8_t& value) { value = u8(); }
  void u32(std::uint32_t& value) { value = u32(); }
  void u64(std::uint64_t& value) { value = u64(); }
  void i64(std::int64_t& value) { value = i64(); }
  void boolean(bool& value) { value = boolean(); }
  /// Assigns in place, so a reused string keeps its capacity.
  void str(std::string& value) {
    const std::uint32_t length = u32();
    value.assign(bytes(length));
  }
  /// u32 count, then `items` resized to it and element(*this, item) per
  /// item in place, so reused elements keep their own buffers' capacity.
  /// Every element encodes to at least one byte, so a count above
  /// remaining() fails before anything is resized (a hostile count costs
  /// no allocation); the walk stops at the first overrun.
  template <typename T, typename Element>
  void list(std::vector<T>& items, Element element) {
    const std::uint32_t count = u32();
    if (count > remaining()) {
      fail();
      return;
    }
    items.resize(count);
    for (T& item : items) {
      if (failed_) return;
      element(*this, item);
    }
  }
  /// One u8 holding an enumerator; a value at or above `count` fails the read.
  template <typename Enum>
  void enumerated(Enum& value, std::size_t count) {
    const std::uint8_t raw = u8();
    if (raw >= count) fail();
    value = static_cast<Enum>(raw);
  }
  std::string_view bytes(std::size_t size) {
    if (failed_ || data_.size() - position_ < size) {
      fail();
      return {};
    }
    const std::string_view view(data_.data() + position_, size);
    position_ += size;
    return view;
  }
  /// Latches failure for a value the layout forbids (the reads themselves
  /// only catch overruns).
  void fail() { failed_ = true; }

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::size_t position() const { return position_; }
  [[nodiscard]] std::size_t remaining() const { return failed_ ? 0 : data_.size() - position_; }
  [[nodiscard]] bool exhausted() const { return !failed_ && position_ == data_.size(); }

 private:
  void raw(void* out, std::size_t size) {
    const std::string_view view = bytes(size);
    if (view.size() != size) return;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, view.data(), size);
    } else {
      auto* first = static_cast<unsigned char*>(out);
      for (std::size_t i = 0; i < size; ++i) {
        first[i] = static_cast<unsigned char>(view[size - 1 - i]);
      }
    }
  }

  std::string_view data_;
  std::size_t position_ = 0;
  bool failed_ = false;
};

/// `T` as a field walk sees it: read-only when encoding, filled when decoding.
template <typename IO, typename T>
using Walked = std::conditional_t<std::is_same_v<IO, ByteWriter>, const T, T>;

}  // namespace umlsoc::support
