#include "wavemig/io/blif.hpp"

#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "wavemig/io/mig_format.hpp"  // parse_error
#include "wavemig/io/text_util.hpp"

namespace wavemig::io {

namespace {

struct names_block {
  std::vector<std::string> signals;  // inputs..., output last
  std::vector<std::pair<std::string, char>> cubes;
  std::size_t line_no{0};
};

signal build_cover(mig_network& net, const names_block& block,
                   const std::vector<signal>& inputs, std::size_t line_no) {
  // Constant covers.
  if (inputs.empty()) {
    if (block.cubes.empty()) {
      return constant0;
    }
    return block.cubes.front().second == '1' ? constant1 : constant0;
  }
  if (block.cubes.empty()) {
    return constant0;
  }

  const char value = block.cubes.front().second;
  signal sum = constant0;
  for (const auto& [pattern, out] : block.cubes) {
    if (out != value) {
      throw parse_error{line_no, ".names mixes on-set and off-set cubes"};
    }
    if (pattern.size() != inputs.size()) {
      throw parse_error{line_no, "cube width does not match .names input count"};
    }
    signal cube = constant1;
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      if (pattern[i] == '1') {
        cube = net.create_and(cube, inputs[i]);
      } else if (pattern[i] == '0') {
        cube = net.create_and(cube, !inputs[i]);
      } else if (pattern[i] != '-') {
        throw parse_error{line_no, std::string{"invalid cube character '"} + pattern[i] + "'"};
      }
    }
    sum = net.create_or(sum, cube);
  }
  return value == '1' ? sum : !sum;  // off-set cover describes the complement
}

}  // namespace

mig_network read_blif(std::istream& is) {
  mig_network net;
  std::unordered_map<std::string, signal> symbols;
  std::vector<std::string> outputs;
  std::vector<names_block> blocks;

  std::size_t line_no = 0;
  std::string line;
  std::string pending;  // handles '\' continuations
  names_block* current = nullptr;

  auto tokens_of = [](const std::string& s) {
    std::vector<std::string> t;
    std::stringstream ss{s};
    std::string w;
    while (ss >> w) {
      t.push_back(w);
    }
    return t;
  };

  while (std::getline(is, line)) {
    ++line_no;
    strip_line_ending(line);  // CRLF parity with every other io/ reader
    // A '#' comment runs to the end of the physical line, so a backslash
    // inside a comment is part of the comment, not a continuation: strip
    // before the continuation check, and drop the whitespace the strip can
    // leave so "\ # comment" still continues like "\" does.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    strip_line_ending(line);
    if (!line.empty() && line.back() == '\\') {
      pending += line.substr(0, line.size() - 1) + " ";
      continue;
    }
    line = pending + line;
    pending.clear();

    const auto toks = tokens_of(line);
    if (toks.empty()) {
      continue;
    }

    if (toks[0] == ".model") {
      current = nullptr;
    } else if (toks[0] == ".inputs") {
      current = nullptr;
      for (std::size_t i = 1; i < toks.size(); ++i) {
        symbols[toks[i]] = net.create_pi(toks[i]);
      }
    } else if (toks[0] == ".outputs") {
      current = nullptr;
      outputs.insert(outputs.end(), toks.begin() + 1, toks.end());
    } else if (toks[0] == ".names") {
      if (toks.size() < 2) {
        throw parse_error{line_no, ".names requires at least an output"};
      }
      blocks.emplace_back();
      current = &blocks.back();
      current->signals.assign(toks.begin() + 1, toks.end());
      current->line_no = line_no;
    } else if (toks[0] == ".end") {
      current = nullptr;
    } else if (toks[0] == ".latch" || toks[0] == ".subckt" || toks[0] == ".gate") {
      throw parse_error{line_no, "unsupported BLIF construct '" + toks[0] + "'"};
    } else if (toks[0][0] == '.') {
      throw parse_error{line_no, "unknown BLIF directive '" + toks[0] + "'"};
    } else {
      if (current == nullptr) {
        throw parse_error{line_no, "cube line outside .names"};
      }
      if (current->signals.size() == 1) {
        // Constant: single token '0' or '1'.
        if (toks.size() != 1 || (toks[0] != "0" && toks[0] != "1")) {
          throw parse_error{line_no, "constant .names expects a single 0/1 line"};
        }
        current->cubes.emplace_back("", toks[0][0]);
      } else {
        if (toks.size() != 2 || toks[1].size() != 1) {
          throw parse_error{line_no, "cube line must be '<pattern> <0|1>'"};
        }
        current->cubes.emplace_back(toks[0], toks[1][0]);
      }
    }
  }
  if (!pending.empty()) {
    // The accumulated text never reached the parser; dropping it silently
    // would quietly alter the circuit.
    throw parse_error{line_no, "file ends inside a '\\' line continuation"};
  }

  // Resolve .names blocks; BLIF allows any order, so iterate until all
  // definitions are available (cycles are rejected).
  std::vector<bool> done(blocks.size(), false);
  std::size_t remaining = blocks.size();
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (done[i]) {
        continue;
      }
      auto& block = blocks[i];
      std::vector<signal> inputs;
      bool ready = true;
      for (std::size_t s = 0; s + 1 < block.signals.size(); ++s) {
        const auto it = symbols.find(block.signals[s]);
        if (it == symbols.end()) {
          ready = false;
          break;
        }
        inputs.push_back(it->second);
      }
      if (!ready) {
        continue;
      }
      const std::string& out = block.signals.back();
      if (symbols.count(out) != 0) {
        throw parse_error{block.line_no, "redefinition of '" + out + "'"};
      }
      symbols[out] = build_cover(net, block, inputs, block.line_no);
      done[i] = true;
      --remaining;
      progress = true;
    }
  }
  if (remaining > 0) {
    throw parse_error{0, "unresolved or cyclic .names definitions"};
  }

  for (const auto& name : outputs) {
    const auto it = symbols.find(name);
    if (it == symbols.end()) {
      throw parse_error{0, "undefined output '" + name + "'"};
    }
    net.create_po(it->second, name);
  }
  return net;
}

mig_network read_blif_file(const std::string& path) {
  std::ifstream is{path};
  if (!is) {
    throw std::runtime_error{"read_blif_file: cannot open '" + path + "'"};
  }
  return read_blif(is);
}

namespace {

/// Emitted-name table. User-visible PI/PO names are sanitized (whitespace,
/// '#' and '\' would change the token structure of the file) and claimed
/// first; generated names — internal nodes ("n<i>"), shared inverters
/// ("<name>_b"), constant drivers ("const0"/"const1") — are then uniquified
/// against them, so a PI literally named "n7" no longer merges with node 7
/// on re-read.
class blif_name_table {
public:
  explicit blif_name_table(const mig_network& net) : net_{net} {
    pi_names_.reserve(net.num_pis());
    for (std::size_t i = 0; i < net.num_pis(); ++i) {
      pi_names_.push_back(claim(sanitize(net.pi_name(i))));
    }
    po_names_.reserve(net.num_pos());
    for (const auto& po : net.pos()) {
      po_names_.push_back(claim(sanitize(po.name)));
    }
  }

  [[nodiscard]] const std::string& pi(std::size_t position) const {
    return pi_names_[position];
  }
  [[nodiscard]] const std::string& po(std::size_t position) const {
    return po_names_[position];
  }

  [[nodiscard]] const std::string& node(node_index n) {
    auto [it, inserted] = node_names_.try_emplace(n);
    if (inserted) {
      it->second = net_.is_pi(n) ? pi_names_[net_.pi_position(n)]
                                 : claim(std::string{"n"}.append(std::to_string(n)));
    }
    return it->second;
  }

  /// Name of the shared inverter fed by node `n`.
  [[nodiscard]] const std::string& inverted(node_index n) {
    auto [it, inserted] = inverted_names_.try_emplace(n);
    if (inserted) {
      it->second = claim(node(n) + "_b");
    }
    return it->second;
  }

  [[nodiscard]] const std::string& constant(bool one) {
    std::string& name = constant_names_[one ? 1 : 0];
    if (name.empty()) {
      name = claim(one ? "const1" : "const0");
    }
    return name;
  }

private:
  static std::string sanitize(const std::string& name) {
    std::string out = name.empty() ? "_" : name;
    for (char& ch : out) {
      if (ch == ' ' || ch == '\t' || ch == '#' || ch == '\\' || ch == '\r' || ch == '\n') {
        ch = '_';
      }
    }
    return out;
  }

  /// Registers `base`, appending "_<k>" until it is unique.
  std::string claim(std::string base) {
    if (used_.insert(base).second) {
      return base;
    }
    for (unsigned k = 1;; ++k) {
      std::string candidate = base + "_" + std::to_string(k);
      if (used_.insert(candidate).second) {
        return candidate;
      }
    }
  }

  const mig_network& net_;
  std::unordered_set<std::string> used_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> po_names_;
  std::unordered_map<node_index, std::string> node_names_;
  std::unordered_map<node_index, std::string> inverted_names_;
  std::string constant_names_[2];
};

}  // namespace

void write_blif(const mig_network& net, std::ostream& os, const std::string& model_name) {
  blif_name_table names{net};

  os << ".model " << model_name << "\n.inputs";
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    os << ' ' << names.pi(i);
  }
  os << "\n.outputs";
  for (std::size_t p = 0; p < net.num_pos(); ++p) {
    os << ' ' << names.po(p);
  }
  os << '\n';

  // Shared inverters: one per driver that feeds any complemented edge.
  std::unordered_set<node_index> inverted;
  auto operand = [&](signal s) -> std::string {
    if (s.is_complemented()) {
      inverted.insert(s.index());
      return names.inverted(s.index());
    }
    return names.node(s.index());
  };

  // Constant drivers used anywhere need .names blocks.
  bool use_const0 = false;
  bool use_const1 = false;
  std::ostringstream body;
  auto emit_operand = [&](signal s) -> std::string {
    if (net.is_constant(s.index())) {
      if (s.is_complemented()) {
        use_const1 = true;
      } else {
        use_const0 = true;
      }
      return names.constant(s.is_complemented());
    }
    return operand(s);
  };

  net.foreach_node([&](node_index n) {
    switch (net.kind(n)) {
      case node_kind::majority: {
        const auto fis = net.fanins(n);
        const std::string a = emit_operand(fis[0]);
        const std::string b = emit_operand(fis[1]);
        const std::string c = emit_operand(fis[2]);
        body << ".names " << a << ' ' << b << ' ' << c << ' ' << names.node(n) << '\n'
             << "11- 1\n1-1 1\n-11 1\n";
        break;
      }
      case node_kind::buffer:
      case node_kind::fanout:
        body << ".names " << emit_operand(net.fanins(n)[0]) << ' ' << names.node(n) << '\n'
             << "1 1\n";
        break;
      default:
        break;
    }
  });

  std::ostringstream po_body;
  for (std::size_t p = 0; p < net.num_pos(); ++p) {
    po_body << ".names " << emit_operand(net.po_signal(p)) << ' ' << names.po(p) << "\n1 1\n";
  }

  if (use_const0) {
    os << ".names " << names.constant(false) << "\n";  // empty cover = constant 0
  }
  if (use_const1) {
    os << ".names " << names.constant(true) << "\n1\n";
  }
  for (const node_index n : inverted) {
    os << ".names " << names.node(n) << ' ' << names.inverted(n) << "\n0 1\n";
  }
  os << body.str() << po_body.str() << ".end\n";
}

void write_blif_file(const mig_network& net, const std::string& path,
                     const std::string& model_name) {
  std::ofstream os{path};
  if (!os) {
    throw std::runtime_error{"write_blif_file: cannot open '" + path + "'"};
  }
  write_blif(net, os, model_name);
}

}  // namespace wavemig::io
