#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace wavemig::io {

/// Strips one line's trailing end-of-line debris in place: any combination
/// of '\r', ' ', and '\t' at the end (std::getline already consumed the
/// '\n'). The one shared definition of "end of a text line" for every
/// reader in io/ — files written on Windows (CRLF) or with trailing
/// whitespace parse identically to clean ones.
void strip_line_ending(std::string& line);
/// The same rule for a line held as a view: `line` without its debris.
[[nodiscard]] std::string_view strip_line_ending(std::string_view line);

/// Parses a non-negative decimal count with an explicit overflow bound:
/// rejects empty tokens, non-digit characters, and any value above `max`
/// with std::invalid_argument naming `what` — a fuzzed header (or argv)
/// count can neither wrap an unsigned nor smuggle a sign through
/// stoul-style silent negation.
[[nodiscard]] std::size_t parse_count(const std::string& token, std::size_t max,
                                      const char* what);

}  // namespace wavemig::io
