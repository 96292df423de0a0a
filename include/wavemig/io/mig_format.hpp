#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "wavemig/mig.hpp"

namespace wavemig::io {

/// Error thrown by all readers on malformed input; carries a line number.
class parse_error : public std::runtime_error {
public:
  parse_error(std::size_t line, const std::string& message)
      : std::runtime_error{"line " + std::to_string(line) + ": " + message}, line_{line} {}

  [[nodiscard]] std::size_t line() const { return line_; }

private:
  std::size_t line_;
};

/// Writes the native `.mig` netlist format:
///
///     # comment
///     .model <name>
///     .inputs <name> ...
///     <name> = MAJ(<op>, <op>, <op>)
///     <name> = BUF(<op>)
///     <name> = FOG(<op>)
///     .output <name> = <op>
///
/// where an operand is `[!]<name>`, `0`, or `1`. Definitions precede uses
/// (the writer emits topological order; the reader enforces it).
void write_mig(const mig_network& net, std::ostream& os, const std::string& model_name = "mig");
void write_mig_file(const mig_network& net, const std::string& path,
                    const std::string& model_name = "mig");

/// Reads the native format. Round-trips with write_mig (structure and names
/// preserved up to majority canonicalization). Reads the whole stream into
/// one buffer first and parses views of it. Throws parse_error with the
/// 1-based line number; a line with several undefined operands reports the
/// leftmost one. A signal — an input or an assignment — named `0`, `1` or
/// `!<anything>` is a parse_error, since operands spelled that way read as
/// constants and complements; write_mig of a network with such a PI name
/// therefore does not read back.
mig_network read_mig(std::istream& is);
mig_network read_mig_file(const std::string& path);

}  // namespace wavemig::io
