#include "support/strings.hpp"

#include <algorithm>
#include <cctype>

namespace umlsoc::support {

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
bool is_alnum(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0; }
bool is_alpha(char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0; }
bool is_upper(char c) { return std::isupper(static_cast<unsigned char>(c)) != 0; }
char to_lower(char c) { return static_cast<char>(std::tolower(static_cast<unsigned char>(c))); }
char to_upper(char c) { return static_cast<char>(std::toupper(static_cast<unsigned char>(c))); }

// Splits a human-readable name into word chunks at spaces, dashes,
// underscores and lower-to-upper camel case boundaries.
std::vector<std::string> name_words(std::string_view name) {
  std::vector<std::string> words;
  std::string current;
  char previous = '\0';
  for (char c : name) {
    if (c == ' ' || c == '-' || c == '_' || c == '.' || c == ':') {
      if (!current.empty()) words.push_back(std::move(current));
      current.clear();
    } else {
      if (is_upper(c) && !current.empty() && !is_upper(previous)) {
        words.push_back(std::move(current));
        current.clear();
      }
      current.push_back(c);
    }
    previous = c;
  }
  if (!current.empty()) words.push_back(std::move(current));
  return words;
}

}  // namespace

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == separator) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string join(const std::vector<std::string>& parts, std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += separator;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::string xml_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string indent(std::string_view text, int levels) {
  const std::string prefix(static_cast<std::size_t>(levels) * 2, ' ');
  std::string out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      std::string_view line = text.substr(start, i - start);
      if (!trim(line).empty()) out += prefix;
      out += line;
      if (i != text.size()) out += '\n';
      start = i + 1;
    }
  }
  return out;
}

std::string to_snake_case(std::string_view name) {
  std::vector<std::string> words = name_words(name);
  std::string out;
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i != 0) out += '_';
    for (char c : words[i]) out += is_alnum(c) ? to_lower(c) : '_';
  }
  if (out.empty() || !(is_alpha(out.front()) || out.front() == '_')) out.insert(out.begin(), '_');
  return out;
}

std::string to_upper_camel_case(std::string_view name) {
  std::vector<std::string> words = name_words(name);
  std::string out;
  for (const std::string& word : words) {
    bool first = true;
    for (char c : word) {
      if (!is_alnum(c)) continue;
      out += first ? to_upper(c) : c;
      first = false;
    }
  }
  if (out.empty() || !is_alpha(out.front())) out.insert(out.begin(), 'X');
  return out;
}

bool is_identifier(std::string_view name) {
  if (name.empty()) return false;
  if (!is_alpha(name.front()) && name.front() != '_') return false;
  for (char c : name) {
    if (!is_alnum(c) && c != '_') return false;
  }
  return true;
}

std::string numbered(std::string_view prefix, std::uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

std::string to_hex(std::uint64_t value) {
  if (value == 0) return "0";
  std::string out;
  for (; value != 0; value >>= 4) out += "0123456789abcdef"[value & 0xF];
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t count_nonempty_lines(std::string_view text) {
  std::size_t count = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      if (!trim(text.substr(start, i - start)).empty()) ++count;
      start = i + 1;
    }
  }
  return count;
}

}  // namespace umlsoc::support
