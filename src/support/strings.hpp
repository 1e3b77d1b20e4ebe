// Small string utilities used by parsers, code generators and pretty-printers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace umlsoc::support {

[[nodiscard]] std::string_view trim(std::string_view text);
[[nodiscard]] std::vector<std::string> split(std::string_view text, char separator);
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view separator);

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix);

/// Escapes &, <, >, " and ' for embedding in XML attribute or text content.
[[nodiscard]] std::string xml_escape(std::string_view text);

/// Indents every non-empty line of `text` by `levels * 2` spaces.
[[nodiscard]] std::string indent(std::string_view text, int levels);

/// Converts "FrameBuffer" / "frame buffer" / "frame-buffer" to
/// "frame_buffer"; used when deriving RTL / C++ identifiers from model names.
[[nodiscard]] std::string to_snake_case(std::string_view name);

/// Converts any name to an UpperCamelCase identifier.
[[nodiscard]] std::string to_upper_camel_case(std::string_view name);

/// True when `name` is a legal C/Verilog-style identifier.
[[nodiscard]] bool is_identifier(std::string_view name);

/// `prefix` followed by the decimal digits of `n` ("s3"), for the names of
/// generated model elements. Built by appending: GCC 12 at -O3 misreads
/// `"s" + std::to_string(n)` as an overlapping copy (-Wrestrict).
[[nodiscard]] std::string numbered(std::string_view prefix, std::uint64_t n);

/// Lower-case hex digits of `value`, no prefix and no leading zeros ("0"
/// for zero): register addresses in generated RTL, SystemC and PSMs.
[[nodiscard]] std::string to_hex(std::uint64_t value);

/// Counts '\n'-separated lines with at least one non-space character.
[[nodiscard]] std::size_t count_nonempty_lines(std::string_view text);

}  // namespace umlsoc::support
