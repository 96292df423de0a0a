#include "wavemig/io/mig_format.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "wavemig/io/text_util.hpp"

namespace wavemig::io {

namespace {

/// Whitespace as `operator>>` splits tokens in the classic locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// A PI name reads back as itself when it is one whitespace-free token
/// (`.inputs` splits on whitespace) without ',' (which splits operands)
/// that no operand reads as a constant or a complement.
bool writable_input(std::string_view name) {
  return !name.empty() && name != "0" && name != "1" && !name.starts_with('!') &&
         std::none_of(name.begin(), name.end(), [](char c) { return is_space(c) || c == ','; });
}

/// A PO name reads back when it is one whitespace-free token without '='
/// (`.output <name> = <operand>` splits on the first one).
bool writable_output(std::string_view name) {
  return !name.empty() &&
         std::none_of(name.begin(), name.end(), [](char c) { return is_space(c) || c == '='; });
}

/// Throws std::invalid_argument unless every name of `net` reads back.
void check_writable(const mig_network& net, const std::string& model_name) {
  if (model_name.find('\n') != std::string::npos) {
    throw std::invalid_argument{"write_mig: the model name spans lines"};
  }
  std::unordered_set<std::string_view> inputs;
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    const std::string& name = net.pi_name(i);
    if (!writable_input(name)) {
      throw std::invalid_argument{"write_mig: input name '" + name +
                                  "' cannot be read back (empty, whitespace, ',', or read as "
                                  "a constant or a complement)"};
    }
    if (!inputs.insert(name).second) {
      throw std::invalid_argument{"write_mig: two inputs are named '" + name + "'"};
    }
  }
  for (const auto& po : net.pos()) {
    if (!writable_output(po.name)) {
      throw std::invalid_argument{"write_mig: output name '" + po.name +
                                  "' cannot be read back (empty, whitespace or '=')"};
    }
  }
}

/// Gate names are this prefix and the node index: `n`, followed by the
/// fewest underscores that no PI name followed by digits alone uses, so no
/// gate redefines an input.
std::string gate_prefix(const mig_network& net) {
  std::vector<bool> taken;
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    const std::string_view name = net.pi_name(i);
    if (!name.starts_with('n')) {
      continue;
    }
    const std::size_t digits = name.find_first_not_of('_', 1);
    if (digits == std::string_view::npos ||
        name.find_first_not_of("0123456789", digits) != std::string_view::npos) {
      continue;
    }
    const std::size_t underscores = digits - 1;
    if (taken.size() <= underscores) {
      taken.resize(underscores + 1, false);
    }
    taken[underscores] = true;
  }
  const auto free = std::find(taken.begin(), taken.end(), false);
  std::string prefix(1 + static_cast<std::size_t>(free - taken.begin()), '_');
  prefix.front() = 'n';
  return prefix;
}

}  // namespace

void write_mig(const mig_network& net, std::ostream& os, const std::string& model_name) {
  check_writable(net, model_name);
  const std::string prefix = gate_prefix(net);
  // Streams `node`'s name, then `[!]<name>`, `0` or `1` for a signal.
  const auto node = [&](node_index n) -> std::ostream& {
    return net.is_pi(n) ? os << net.pi_name(net.pi_position(n)) : os << prefix << n;
  };
  const auto operand = [&](signal s) -> std::ostream& {
    if (net.is_constant(s.index())) {
      return os << (s.is_complemented() ? '1' : '0');
    }
    if (s.is_complemented()) {
      os << '!';
    }
    return node(s.index());
  };

  os << "# wavemig netlist\n.model " << model_name << "\n.inputs";
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    os << ' ' << net.pi_name(i);
  }
  os << '\n';

  net.foreach_node([&](node_index n) {
    switch (net.kind(n)) {
      case node_kind::majority: {
        const auto fis = net.fanins(n);
        node(n) << " = MAJ(";
        operand(fis[0]) << ", ";
        operand(fis[1]) << ", ";
        operand(fis[2]) << ")\n";
        break;
      }
      case node_kind::buffer:
        node(n) << " = BUF(";
        operand(net.fanins(n)[0]) << ")\n";
        break;
      case node_kind::fanout:
        node(n) << " = FOG(";
        operand(net.fanins(n)[0]) << ")\n";
        break;
      default:
        break;
    }
  });

  for (const auto& po : net.pos()) {
    os << ".output " << po.name << " = ";
    operand(po.driver) << '\n';
  }
}

void write_mig_file(const mig_network& net, const std::string& path,
                    const std::string& model_name) {
  std::ofstream os{path};
  if (!os) {
    throw std::runtime_error{"write_mig_file: cannot open '" + path + "'"};
  }
  write_mig(net, os, model_name);
}

namespace {

/// Cuts the next whitespace-separated token off the front of `rest`; empty
/// when none is left.
std::string_view next_token(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) {
    ++begin;
  }
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) {
    ++end;
  }
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

std::string_view trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string_view::npos) {
    return {};
  }
  return s.substr(begin, s.find_last_not_of(" \t") - begin + 1);
}

std::string read_all(std::istream& is) {
  std::string text;
  std::array<char, 1 << 16> chunk;
  while (is.read(chunk.data(), chunk.size()) || is.gcount() > 0) {
    text.append(chunk.data(), static_cast<std::size_t>(is.gcount()));
  }
  return text;
}

/// "NAME = KIND(op, op, ...)" split into trimmed pieces. Operands are split
/// on ',' the way getline(stream, piece, ',') splits them: a final empty
/// piece is not an operand. Up to three are kept; `num_ops` counts all.
struct assignment {
  std::string_view name;
  std::string_view kind;
  std::array<std::string_view, 3> ops;
  std::size_t num_ops{0};
};

/// Returns false if the line is not an assignment.
bool split_assignment(std::string_view line, assignment& out) {
  const auto eq = line.find('=');
  const auto open = line.find('(');
  const auto close = line.rfind(')');
  if (eq == std::string_view::npos || open == std::string_view::npos ||
      close == std::string_view::npos || open > close || eq > open) {
    return false;
  }
  out.name = trim(line.substr(0, eq));
  out.kind = trim(line.substr(eq + 1, open - eq - 1));
  out.num_ops = 0;
  std::string_view inner = line.substr(open + 1, close - open - 1);
  while (!inner.empty()) {
    const auto comma = inner.find(',');
    if (out.num_ops < out.ops.size()) {
      out.ops[out.num_ops] = trim(inner.substr(0, comma));
    }
    ++out.num_ops;
    if (comma == std::string_view::npos) {
      break;
    }
    inner.remove_prefix(comma + 1);
  }
  return !out.name.empty() && !out.kind.empty();
}

/// Symbols of one read: open addressing with linear probing over views
/// into the text, at most half full. An empty name marks a free slot
/// (names are never empty). The table grows with the symbols and is never
/// sized from the text, so a hostile text of blank lines buys no memory.
class symbol_table {
public:
  [[nodiscard]] const signal* find(std::string_view name) const {
    const entry& e = slots_[probe(slots_, name, hash(name))];
    return e.name.empty() ? nullptr : &e.value;
  }

  /// Adds `name`, which the caller has checked is absent.
  void insert(std::string_view name, signal value) {
    if (2 * (size_ + 1) > slots_.size()) {
      std::vector<entry> grown(2 * slots_.size());
      for (const entry& e : slots_) {
        if (!e.name.empty()) {
          grown[probe(grown, e.name, e.hash)] = e;
        }
      }
      slots_ = std::move(grown);
    }
    const std::uint32_t h = hash(name);
    slots_[probe(slots_, name, h)] = {name, value, h};
    ++size_;
  }

private:
  struct entry {
    std::string_view name;
    signal value;
    std::uint32_t hash;
  };

  static std::uint32_t hash(std::string_view name) {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
  }

  /// The slot holding `name`, or the free slot where it belongs.
  static std::size_t probe(const std::vector<entry>& slots, std::string_view name,
                           std::uint32_t h) {
    const std::size_t mask = slots.size() - 1;
    std::size_t slot = h & mask;
    while (!slots[slot].name.empty() && (slots[slot].hash != h || slots[slot].name != name)) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  std::vector<entry> slots_ = std::vector<entry>(64);
  std::size_t size_{0};
};

class reader {
public:
  /// `text` must outlive the reader: symbols are views into it.
  explicit reader(std::string_view text) : text_{text} {}

  mig_network parse() {
    for (std::string_view rest = text_; !rest.empty();) {
      const auto newline = rest.find('\n');
      const std::string_view line = rest.substr(0, newline);
      rest.remove_prefix(newline == std::string_view::npos ? rest.size() : newline + 1);
      ++line_no_;
      parse_line(line);
    }
    return std::move(net_);
  }

private:
  void parse_line(std::string_view line) {
    const auto begin = line.find_first_not_of(" \t\r");
    if (begin == std::string_view::npos || line[begin] == '#') {
      return;
    }
    line = strip_line_ending(line.substr(begin));

    if (line.starts_with(".model")) {
      return;
    }
    if (line.starts_with(".inputs")) {
      std::string_view rest = line.substr(7);
      for (auto name = next_token(rest); !name.empty(); name = next_token(rest)) {
        check_definable(name);
        if (symbols_.find(name) != nullptr) {
          throw parse_error{line_no_, "duplicate input '" + std::string{name} + "'"};
        }
        symbols_.insert(name, net_.create_pi(std::string{name}));
      }
      return;
    }
    if (line.starts_with(".output")) {
      const auto eq = line.find('=');
      if (eq == std::string_view::npos) {
        throw parse_error{line_no_, ".output requires '<name> = <operand>'"};
      }
      std::string_view left = line.substr(7, eq - 7);
      std::string_view right = line.substr(eq + 1);
      const std::string_view name = next_token(left);
      const std::string_view op = next_token(right);
      if (name.empty() || op.empty()) {
        throw parse_error{line_no_, ".output requires '<name> = <operand>'"};
      }
      net_.create_po(parse_operand(op), std::string{name});
      return;
    }

    assignment a;
    if (!split_assignment(line, a)) {
      throw parse_error{line_no_, "unrecognized line '" + std::string{line} + "'"};
    }
    check_definable(a.name);
    if (symbols_.find(a.name) != nullptr) {
      throw parse_error{line_no_, "redefinition of '" + std::string{a.name} + "'"};
    }
    signal s;
    if (a.kind == "MAJ") {
      if (a.num_ops != 3) {
        throw parse_error{line_no_, "MAJ requires three operands"};
      }
      const signal x = parse_operand(a.ops[0]);
      const signal y = parse_operand(a.ops[1]);
      const signal z = parse_operand(a.ops[2]);
      s = net_.create_maj(x, y, z);
    } else if (a.kind == "BUF" || a.kind == "FOG") {
      if (a.num_ops != 1) {
        throw parse_error{line_no_, std::string{a.kind} + " requires one operand"};
      }
      const signal x = parse_operand(a.ops[0]);
      s = a.kind == "BUF" ? net_.create_buffer(x) : net_.create_fanout(x);
    } else {
      throw parse_error{line_no_, "unknown component kind '" + std::string{a.kind} + "'"};
    }
    symbols_.insert(a.name, s);
  }

  /// An operand `0`, `1` or `!<name>` never reads a symbol of that
  /// spelling, so a signal defined under one would silently be replaced by
  /// a constant or a complement wherever it is used; and operands split on
  /// ',', so a name holding one could not be used as a gate's operand.
  void check_definable(std::string_view name) const {
    if (name == "0" || name == "1" || name.starts_with('!')) {
      throw parse_error{line_no_, "'" + std::string{name} +
                                      "' cannot name a signal: operands read it as a "
                                      "constant or a complement"};
    }
    if (name.find(',') != std::string_view::npos) {
      throw parse_error{line_no_, "'" + std::string{name} +
                                      "' cannot name a signal: operands split on ','"};
    }
  }

  [[nodiscard]] signal parse_operand(std::string_view token) const {
    if (token == "0") {
      return constant0;
    }
    if (token == "1") {
      return constant1;
    }
    const bool complemented = token.starts_with('!');
    if (complemented) {
      token.remove_prefix(1);
    }
    const signal* found = symbols_.find(token);
    if (found == nullptr) {
      throw parse_error{line_no_, "use of undefined signal '" + std::string{token} + "'"};
    }
    return found->complement_if(complemented);
  }

  std::string_view text_;
  symbol_table symbols_;
  mig_network net_;
  std::size_t line_no_{0};
};

}  // namespace

mig_network read_mig(std::istream& is) {
  const std::string text = read_all(is);
  return reader{text}.parse();
}

mig_network read_mig_file(const std::string& path) {
  std::ifstream is{path};
  if (!is) {
    throw std::runtime_error{"read_mig_file: cannot open '" + path + "'"};
  }
  return read_mig(is);
}

}  // namespace wavemig::io
