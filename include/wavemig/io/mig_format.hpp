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
/// (the writer emits topological order; the reader enforces it). Inputs
/// keep their names; a gate is named `n<node index>`, with underscores
/// after the `n` when an input is already named `n` plus digits, so no gate
/// redefines an input.
///
/// Writes only text `read_mig` reads back. Before writing anything it
/// throws std::invalid_argument for a name the grammar cannot carry: an
/// input name that is empty, holds whitespace or ',', reads as a constant
/// or a complement (`0`, `1`, `!<anything>`), or repeats another input's;
/// an output name that is empty or holds whitespace or '='; a model name
/// that spans lines.
void write_mig(const mig_network& net, std::ostream& os, const std::string& model_name = "mig");
void write_mig_file(const mig_network& net, const std::string& path,
                    const std::string& model_name = "mig");

/// Reads the native format. Round-trips with write_mig (structure and names
/// preserved up to majority canonicalization): every text write_mig writes
/// reads back. Reads the whole stream into one buffer first and parses views
/// of it. Throws parse_error with the 1-based line number; a line with
/// several undefined operands reports the leftmost one. A signal — an input
/// or an assignment — named `0`, `1` or `!<anything>`, or with a ',' in its
/// name, is a parse_error, since operands spelled that way read as
/// constants and complements or split in two; write_mig refuses such an
/// input name instead of writing it.
mig_network read_mig(std::istream& is);
mig_network read_mig_file(const std::string& path);

}  // namespace wavemig::io
