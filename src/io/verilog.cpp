#include "wavemig/io/verilog.hpp"

#include "wavemig/io/text_util.hpp"

#include <fstream>

namespace wavemig::io {

namespace {

std::string v_name(const mig_network& net, node_index n) {
  if (net.is_pi(n)) {
    return "\\" + net.pi_name(net.pi_position(n)) + " ";
  }
  return std::string{"n"}.append(std::to_string(n));
}

std::string v_operand(const mig_network& net, signal s) {
  if (net.is_constant(s.index())) {
    return s.is_complemented() ? "1'b1" : "1'b0";
  }
  return std::string{s.is_complemented() ? "~" : ""}.append(v_name(net, s.index()));
}

}  // namespace

void write_verilog(const mig_network& net, std::ostream& os, const std::string& module_name) {
  os << "// generated by wavemig\nmodule " << module_name << "(";
  bool first = true;
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    os << (first ? "" : ", ") << "\\" << net.pi_name(i) << " ";
    first = false;
  }
  for (const auto& po : net.pos()) {
    os << (first ? "" : ", ") << "\\" << po.name << " ";
    first = false;
  }
  os << ");\n";

  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    os << "  input \\" << net.pi_name(i) << " ;\n";
  }
  for (const auto& po : net.pos()) {
    os << "  output \\" << po.name << " ;\n";
  }

  net.foreach_component([&](node_index n) { os << "  wire " << v_name(net, n) << ";\n"; });

  net.foreach_node([&](node_index n) {
    switch (net.kind(n)) {
      case node_kind::majority: {
        const auto fis = net.fanins(n);
        const std::string a = v_operand(net, fis[0]);
        const std::string b = v_operand(net, fis[1]);
        const std::string c = v_operand(net, fis[2]);
        os << "  assign " << v_name(net, n) << " = (" << a << " & " << b << ") | (" << a << " & "
           << c << ") | (" << b << " & " << c << ");\n";
        break;
      }
      case node_kind::buffer:
      case node_kind::fanout:
        os << "  assign " << v_name(net, n) << " = " << v_operand(net, net.fanins(n)[0])
           << ";  // " << (net.is_buffer(n) ? "BUF" : "FOG") << "\n";
        break;
      default:
        break;
    }
  });

  for (const auto& po : net.pos()) {
    os << "  assign \\" << po.name << "  = " << v_operand(net, po.driver) << ";\n";
  }
  os << "endmodule\n";
}

void write_verilog_file(const mig_network& net, const std::string& path,
                        const std::string& module_name) {
  std::ofstream os{path};
  if (!os) {
    throw std::runtime_error{"write_verilog_file: cannot open '" + path + "'"};
  }
  write_verilog(net, os, module_name);
}

}  // namespace wavemig::io

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

#include <memory>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "wavemig/io/mig_format.hpp"  // parse_error

namespace wavemig::io {

namespace {

/// One `;`-terminated statement with its source line and any BUF/FOG tag
/// carried by a trailing comment.
struct statement {
  std::string text;
  std::size_t line{0};
  bool tag_buf{false};
  bool tag_fog{false};
};

std::vector<statement> split_statements(std::istream& is) {
  std::vector<statement> out;
  statement current;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    strip_line_ending(line);  // CRLF parity with every other io/ reader
    bool buf_tag = false;
    bool fog_tag = false;
    if (const auto comment = line.find("//"); comment != std::string::npos) {
      const std::string trailer = line.substr(comment + 2);
      buf_tag = trailer.find("BUF") != std::string::npos;
      fog_tag = trailer.find("FOG") != std::string::npos;
      line = line.substr(0, comment);
    }
    for (const char c : line) {
      if (current.text.empty()) {
        current.line = line_no;
      }
      if (c == ';') {
        current.tag_buf = buf_tag;
        current.tag_fog = fog_tag;
        out.push_back(std::move(current));
        current = {};
      } else {
        current.text.push_back(c);
      }
    }
  }
  // `endmodule` has no semicolon; flush the tail if it holds tokens.
  if (current.text.find_first_not_of(" \t\r\n") != std::string::npos) {
    out.push_back(std::move(current));
  }
  return out;
}

/// Tokenizer handling backslash-escaped identifiers and multi-char tokens.
std::vector<std::string> tokenize(const std::string& text, std::size_t line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '\'';
  };
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '\\') {
      std::size_t j = i + 1;
      while (j < text.size() && !std::isspace(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
      if (j == i + 1) {
        throw parse_error{line, "empty escaped identifier"};
      }
      tokens.push_back(text.substr(i + 1, j - i - 1));
      i = j;
      continue;
    }
    if (is_ident(c)) {
      std::size_t j = i;
      while (j < text.size() && is_ident(text[j])) {
        ++j;
      }
      tokens.push_back(text.substr(i, j - i));
      i = j;
      continue;
    }
    if (c == '(' || c == ')' || c == ',' || c == '=' || c == '~' || c == '&' || c == '|' ||
        c == '^') {
      tokens.emplace_back(1, c);
      ++i;
      continue;
    }
    throw parse_error{line, std::string{"unexpected character '"} + c + "'"};
  }
  return tokens;
}

/// Expression AST (kept symbolic so assigns can resolve in any order).
struct expr {
  enum class kind { var, constant, not_, and_, or_, xor_ } k{kind::var};
  std::string name;        // var
  bool value{false};       // constant
  std::unique_ptr<expr> lhs;
  std::unique_ptr<expr> rhs;
};

class expr_parser {
public:
  expr_parser(const std::vector<std::string>& tokens, std::size_t start, std::size_t line)
      : tokens_{tokens}, pos_{start}, line_{line} {}

  std::unique_ptr<expr> parse() {
    auto e = parse_or();
    if (pos_ != tokens_.size()) {
      throw parse_error{line_, "trailing tokens after expression"};
    }
    return e;
  }

private:
  const std::string& peek() const {
    static const std::string empty;
    return pos_ < tokens_.size() ? tokens_[pos_] : empty;
  }
  std::string take() {
    if (pos_ >= tokens_.size()) {
      throw parse_error{line_, "unexpected end of expression"};
    }
    return tokens_[pos_++];
  }

  std::unique_ptr<expr> parse_or() {
    auto lhs = parse_xor();
    while (peek() == "|") {
      take();
      auto node = std::make_unique<expr>();
      node->k = expr::kind::or_;
      node->lhs = std::move(lhs);
      node->rhs = parse_xor();
      lhs = std::move(node);
    }
    return lhs;
  }

  std::unique_ptr<expr> parse_xor() {
    auto lhs = parse_and();
    while (peek() == "^") {
      take();
      auto node = std::make_unique<expr>();
      node->k = expr::kind::xor_;
      node->lhs = std::move(lhs);
      node->rhs = parse_and();
      lhs = std::move(node);
    }
    return lhs;
  }

  std::unique_ptr<expr> parse_and() {
    auto lhs = parse_unary();
    while (peek() == "&") {
      take();
      auto node = std::make_unique<expr>();
      node->k = expr::kind::and_;
      node->lhs = std::move(lhs);
      node->rhs = parse_unary();
      lhs = std::move(node);
    }
    return lhs;
  }

  std::unique_ptr<expr> parse_unary() {
    const std::string tok = take();
    if (tok == "~") {
      auto node = std::make_unique<expr>();
      node->k = expr::kind::not_;
      node->lhs = parse_unary();
      return node;
    }
    if (tok == "(") {
      auto inner = parse_or();
      if (take() != ")") {
        throw parse_error{line_, "expected ')'"};
      }
      return inner;
    }
    auto node = std::make_unique<expr>();
    if (tok == "1'b0" || tok == "1'b1") {
      node->k = expr::kind::constant;
      node->value = tok == "1'b1";
      return node;
    }
    node->k = expr::kind::var;
    node->name = tok;
    return node;
  }

  const std::vector<std::string>& tokens_;
  std::size_t pos_;
  std::size_t line_;
};

void collect_vars(const expr& e, std::vector<std::string>& out) {
  if (e.k == expr::kind::var) {
    out.push_back(e.name);
  }
  if (e.lhs) {
    collect_vars(*e.lhs, out);
  }
  if (e.rhs) {
    collect_vars(*e.rhs, out);
  }
}

/// A literal inside the canonical majority pattern: a (possibly negated)
/// variable or a constant — AND/OR gates print as majorities with a
/// constant operand.
struct literal {
  bool is_constant{false};
  bool value{false};
  std::string name;
  bool negated{false};
  friend bool operator==(const literal&, const literal&) = default;
};

/// Matches `lit & lit` (possibly negated operands).
bool match_and_of_literals(const expr& e, literal& a, literal& b) {
  if (e.k != expr::kind::and_) {
    return false;
  }
  auto as_literal = [](const expr& n, literal& out) {
    if (n.k == expr::kind::var) {
      out = {false, false, n.name, false};
      return true;
    }
    if (n.k == expr::kind::constant) {
      out = {true, n.value, {}, false};
      return true;
    }
    if (n.k == expr::kind::not_ && n.lhs && n.lhs->k == expr::kind::var) {
      out = {false, false, n.lhs->name, true};
      return true;
    }
    return false;
  };
  return as_literal(*e.lhs, a) && as_literal(*e.rhs, b);
}

/// Recognizes (a&b)|(a&c)|(b&c) in any association and extracts {a, b, c}.
bool match_majority(const expr& e, std::array<literal, 3>& out) {
  // Flatten the OR tree into terms.
  std::vector<const expr*> terms;
  std::vector<const expr*> stack{&e};
  while (!stack.empty()) {
    const expr* node = stack.back();
    stack.pop_back();
    if (node->k == expr::kind::or_) {
      stack.push_back(node->lhs.get());
      stack.push_back(node->rhs.get());
    } else {
      terms.push_back(node);
    }
  }
  if (terms.size() != 3) {
    return false;
  }
  std::array<std::pair<literal, literal>, 3> pairs;
  for (std::size_t i = 0; i < 3; ++i) {
    if (!match_and_of_literals(*terms[i], pairs[i].first, pairs[i].second)) {
      return false;
    }
  }
  // The three pairs must be the three 2-subsets of one 3-set.
  std::vector<literal> unique;
  auto add = [&](const literal& l) {
    for (const auto& u : unique) {
      if (u == l) {
        return;
      }
    }
    unique.push_back(l);
  };
  for (const auto& [x, y] : pairs) {
    add(x);
    add(y);
  }
  if (unique.size() != 3) {
    return false;
  }
  // Every literal must appear in exactly two pairs.
  for (const auto& u : unique) {
    int count = 0;
    for (const auto& [x, y] : pairs) {
      count += (x == u) + (y == u);
    }
    if (count != 2) {
      return false;
    }
  }
  out = {unique[0], unique[1], unique[2]};
  return true;
}

struct pending_assign {
  std::string target;
  std::unique_ptr<expr> e;
  std::size_t line{0};
  bool tag_buf{false};
  bool tag_fog{false};
};

class verilog_reader {
public:
  mig_network run(std::istream& is) {
    for (const auto& st : split_statements(is)) {
      process(st);
    }
    resolve_assigns();
    for (const auto& name : output_order_) {
      const auto it = symbols_.find(name);
      if (it == symbols_.end()) {
        throw parse_error{0, "undefined output '" + name + "'"};
      }
      net_.create_po(it->second, name);
    }
    return std::move(net_);
  }

private:
  void process(const statement& st) {
    auto tokens = tokenize(st.text, st.line);
    if (tokens.empty()) {
      return;
    }
    const std::string& head = tokens.front();
    if (head == "module" || head == "endmodule" || head == "wire") {
      return;  // declarations carry no structure we need
    }
    if (head == "input" || head == "output") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (tokens[i] == ",") {
          continue;
        }
        if (head == "input") {
          if (symbols_.count(tokens[i]) != 0) {
            throw parse_error{st.line, "duplicate input '" + tokens[i] + "'"};
          }
          symbols_[tokens[i]] = net_.create_pi(tokens[i]);
        } else {
          output_order_.push_back(tokens[i]);
        }
      }
      return;
    }
    if (head == "assign") {
      if (tokens.size() < 4 || tokens[2] != "=") {
        throw parse_error{st.line, "malformed assign"};
      }
      pending_assign pa;
      pa.target = tokens[1];
      pa.line = st.line;
      pa.tag_buf = st.tag_buf;
      pa.tag_fog = st.tag_fog;
      expr_parser parser{tokens, 3, st.line};
      pa.e = parser.parse();
      pending_.push_back(std::move(pa));
      return;
    }
    throw parse_error{st.line, "unsupported statement '" + head + "'"};
  }

  void resolve_assigns() {
    std::vector<bool> done(pending_.size(), false);
    std::size_t remaining = pending_.size();
    bool progress = true;
    while (remaining > 0 && progress) {
      progress = false;
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (done[i]) {
          continue;
        }
        auto& pa = pending_[i];
        std::vector<std::string> vars;
        collect_vars(*pa.e, vars);
        bool ready = true;
        for (const auto& v : vars) {
          if (symbols_.count(v) == 0) {
            ready = false;
            break;
          }
        }
        if (!ready) {
          continue;
        }
        if (symbols_.count(pa.target) != 0) {
          throw parse_error{pa.line, "redefinition of '" + pa.target + "'"};
        }
        symbols_[pa.target] = build(pa);
        done[i] = true;
        --remaining;
        progress = true;
      }
    }
    if (remaining > 0) {
      throw parse_error{0, "unresolved or cyclic assigns"};
    }
  }

  signal build(const pending_assign& pa) {
    // Physical identity components restored from the writer's tags.
    if (pa.tag_buf || pa.tag_fog) {
      const signal in = build_expr(*pa.e);
      return pa.tag_buf ? net_.create_buffer(in) : net_.create_fanout(in);
    }
    // Canonical majority pattern.
    std::array<literal, 3> lits;
    if (match_majority(*pa.e, lits)) {
      auto sig = [&](const literal& l) {
        if (l.is_constant) {
          return (l.value ? constant1 : constant0).complement_if(l.negated);
        }
        return symbols_.at(l.name).complement_if(l.negated);
      };
      return net_.create_maj(sig(lits[0]), sig(lits[1]), sig(lits[2]));
    }
    return build_expr(*pa.e);
  }

  signal build_expr(const expr& e) {
    switch (e.k) {
      case expr::kind::var:
        return symbols_.at(e.name);
      case expr::kind::constant:
        return e.value ? constant1 : constant0;
      case expr::kind::not_:
        return !build_expr(*e.lhs);
      case expr::kind::and_:
        return net_.create_and(build_expr(*e.lhs), build_expr(*e.rhs));
      case expr::kind::or_:
        return net_.create_or(build_expr(*e.lhs), build_expr(*e.rhs));
      case expr::kind::xor_:
        return net_.create_xor(build_expr(*e.lhs), build_expr(*e.rhs));
    }
    return constant0;
  }

  mig_network net_;
  std::unordered_map<std::string, signal> symbols_;
  std::vector<std::string> output_order_;
  std::vector<pending_assign> pending_;
};

}  // namespace

mig_network read_verilog(std::istream& is) {
  verilog_reader reader;
  return reader.run(is);
}

mig_network read_verilog_file(const std::string& path) {
  std::ifstream is{path};
  if (!is) {
    throw std::runtime_error{"read_verilog_file: cannot open '" + path + "'"};
  }
  return read_verilog(is);
}

}  // namespace wavemig::io
