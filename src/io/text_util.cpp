#include "wavemig/io/text_util.hpp"

#include <stdexcept>

namespace wavemig::io {

std::string_view strip_line_ending(std::string_view line) {
  while (!line.empty() &&
         (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
    line.remove_suffix(1);
  }
  return line;
}

void strip_line_ending(std::string& line) {
  line.resize(strip_line_ending(std::string_view{line}).size());
}

std::size_t parse_count(const std::string& token, std::size_t max, const char* what) {
  if (token.empty()) {
    throw std::invalid_argument{std::string{what} + ": empty count"};
  }
  std::size_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument{std::string{what} + ": invalid count '" + token + "'"};
    }
    const std::size_t digit = static_cast<std::size_t>(c - '0');
    // value * 10 + digit > max, tested without the multiply that could wrap.
    if (value > max / 10 || (value == max / 10 && digit > max % 10)) {
      throw std::invalid_argument{std::string{what} + ": count '" + token +
                                  "' exceeds the supported maximum"};
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace wavemig::io
