#include "wavemig/gen/arith.hpp"

#include <stdexcept>

namespace wavemig::gen {

word make_input_word(mig_network& net, unsigned width, const std::string& prefix) {
  word bits;
  bits.reserve(width);
  for (unsigned i = 0; i < width; ++i) {
    bits.push_back(net.create_pi(prefix + std::to_string(i)));
  }
  return bits;
}

void make_output_word(mig_network& net, const word& bits, const std::string& prefix) {
  for (std::size_t i = 0; i < bits.size(); ++i) {
    net.create_po(bits[i], prefix + std::to_string(i));
  }
}

std::pair<word, signal> add_ripple(mig_network& net, const word& a, const word& b,
                                   signal carry_in) {
  if (a.size() != b.size()) {
    throw std::invalid_argument{"add_ripple: width mismatch"};
  }
  word sum;
  sum.reserve(a.size());
  signal carry = carry_in;
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto [s, c] = net.create_full_adder(a[i], b[i], carry);
    sum.push_back(s);
    carry = c;
  }
  return {sum, carry};
}

std::pair<word, signal> sub_ripple(mig_network& net, const word& a, const word& b) {
  word not_b;
  not_b.reserve(b.size());
  for (const signal s : b) {
    not_b.push_back(!s);
  }
  return add_ripple(net, a, not_b, constant1);
}

word multiply_array(mig_network& net, const word& a, const word& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument{"multiply_array: width mismatch"};
  }
  const std::size_t w = a.size();
  word product(2 * w, constant0);

  // Row accumulation of partial products with ripple carries.
  word row(w, constant0);
  for (std::size_t j = 0; j < w; ++j) {
    word partial;
    partial.reserve(w);
    for (std::size_t i = 0; i < w; ++i) {
      partial.push_back(net.create_and(a[i], b[j]));
    }
    auto [sum, carry] = add_ripple(net, row, partial, constant0);
    product[j] = sum.front();
    row.assign(sum.begin() + 1, sum.end());
    row.push_back(carry);
  }
  for (std::size_t i = 0; i < w; ++i) {
    product[w + i] = row[i];
  }
  return product;
}

signal less_than(mig_network& net, const word& a, const word& b) {
  // a < b  <=>  borrow out of a - b  <=>  !carry_out(a + ~b + 1)
  auto [diff, carry] = sub_ripple(net, a, b);
  (void)diff;
  return !carry;
}

signal equals(mig_network& net, const word& a, const word& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument{"equals: width mismatch"};
  }
  signal acc = constant1;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = net.create_and(acc, !net.create_xor(a[i], b[i]));
  }
  return acc;
}

word mux_word(mig_network& net, signal sel, const word& t, const word& e) {
  if (t.size() != e.size()) {
    throw std::invalid_argument{"mux_word: width mismatch"};
  }
  word out;
  out.reserve(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    out.push_back(net.create_mux(sel, t[i], e[i]));
  }
  return out;
}

signal parity(mig_network& net, const word& bits) {
  if (bits.empty()) {
    return constant0;
  }
  // Balanced XOR tree.
  word layer = bits;
  while (layer.size() > 1) {
    word next;
    next.reserve(layer.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(net.create_xor(layer[i], layer[i + 1]));
    }
    if (layer.size() % 2 == 1) {
      next.push_back(layer.back());
    }
    layer = std::move(next);
  }
  return layer.front();
}

word popcount(mig_network& net, const word& bits) {
  if (bits.empty()) {
    return {constant0};
  }
  // Layered 3:2 compression: within each weight column, one layer of full
  // adders (and at most one half adder) maps the column onto a third of its
  // size, keeping the tree logarithmic. Index-based access throughout:
  // pushing a carry column may reallocate `columns`.
  std::vector<word> columns(1, bits);
  word result;
  for (std::size_t weight = 0; weight < columns.size(); ++weight) {
    while (columns[weight].size() > 1) {
      if (columns.size() <= weight + 1) {
        columns.emplace_back();
      }
      const word layer = std::move(columns[weight]);
      word reduced;
      std::size_t i = 0;
      for (; i + 2 < layer.size(); i += 3) {
        auto [s, cy] = net.create_full_adder(layer[i], layer[i + 1], layer[i + 2]);
        reduced.push_back(s);
        columns[weight + 1].push_back(cy);
      }
      if (layer.size() - i == 2) {
        // Half adder: sum = a ^ b, carry = a & b.
        reduced.push_back(net.create_xor(layer[i], layer[i + 1]));
        columns[weight + 1].push_back(net.create_and(layer[i], layer[i + 1]));
      } else if (layer.size() - i == 1) {
        reduced.push_back(layer[i]);
      }
      columns[weight] = std::move(reduced);
    }
    result.push_back(columns[weight].empty() ? constant0 : columns[weight].front());
  }
  return result;
}

mig_network ripple_adder_circuit(unsigned width) {
  mig_network net;
  const word a = make_input_word(net, width, "a");
  const word b = make_input_word(net, width, "b");
  auto [sum, carry] = add_ripple(net, a, b, constant0);
  make_output_word(net, sum, "s");
  net.create_po(carry, "cout");
  return net;
}

mig_network multiplier_circuit(unsigned width) {
  mig_network net;
  const word a = make_input_word(net, width, "a");
  const word b = make_input_word(net, width, "b");
  make_output_word(net, multiply_array(net, a, b), "p");
  return net;
}

mig_network mac_circuit(unsigned width) {
  mig_network net;
  const word a = make_input_word(net, width, "a");
  const word b = make_input_word(net, width, "b");
  word c = make_input_word(net, width, "c");
  word product = multiply_array(net, a, b);
  c.resize(product.size(), constant0);
  auto [sum, carry] = add_ripple(net, product, c, constant0);
  make_output_word(net, sum, "m");
  net.create_po(carry, "cout");
  return net;
}

mig_network hamming_distance_circuit(unsigned width) {
  mig_network net;
  const word a = make_input_word(net, width, "a");
  const word b = make_input_word(net, width, "b");

  // Sequential accumulation (not a balanced tree) to mirror the paper's
  // deep HAMMING benchmark: acc += (a_i ^ b_i), one small adder per bit.
  word acc(1, net.create_xor(a[0], b[0]));
  for (unsigned i = 1; i < width; ++i) {
    const signal d = net.create_xor(a[i], b[i]);
    word addend(acc.size(), constant0);
    addend[0] = d;
    auto [sum, carry] = add_ripple(net, acc, addend, constant0);
    acc = std::move(sum);
    // Width grows just enough to hold the count.
    if ((i & (i + 1)) == 0) {  // i+1 is a power of two
      acc.push_back(carry);
    }
  }
  make_output_word(net, acc, "d");
  return net;
}

mig_network hamming_codec_circuit(unsigned parity_bits) {
  if (parity_bits < 2 || parity_bits > 6) {
    throw std::invalid_argument{"hamming_codec_circuit: parity_bits in [2,6]"};
  }
  const unsigned n = (1u << parity_bits) - 1;  // codeword length
  const unsigned k = n - parity_bits;          // data length

  mig_network net;
  const word data = make_input_word(net, k, "d");
  const word error = make_input_word(net, n, "e");  // error mask (testbench injects <=1 bit)

  // Systematic encoding: positions 1..n (1-based); powers of two hold parity.
  word code(n + 1, constant0);  // index 0 unused
  unsigned d = 0;
  for (unsigned pos = 1; pos <= n; ++pos) {
    if ((pos & (pos - 1)) != 0) {
      code[pos] = data[d++];
    }
  }
  for (unsigned p = 0; p < parity_bits; ++p) {
    const unsigned mask = 1u << p;
    word covered;
    for (unsigned pos = 1; pos <= n; ++pos) {
      if ((pos & mask) != 0 && (pos & (pos - 1)) != 0) {
        covered.push_back(code[pos]);
      }
    }
    code[mask] = parity(net, covered);
  }

  // Channel: flip bits under the error mask.
  word received(n + 1, constant0);
  for (unsigned pos = 1; pos <= n; ++pos) {
    received[pos] = net.create_xor(code[pos], error[pos - 1]);
  }

  // Syndrome.
  word syndrome;
  for (unsigned p = 0; p < parity_bits; ++p) {
    const unsigned mask = 1u << p;
    word covered;
    for (unsigned pos = 1; pos <= n; ++pos) {
      if ((pos & mask) != 0) {
        covered.push_back(received[pos]);
      }
    }
    syndrome.push_back(parity(net, covered));
  }

  // Correct: flip position `syndrome` when non-zero; emit data positions.
  d = 0;
  for (unsigned pos = 1; pos <= n; ++pos) {
    if ((pos & (pos - 1)) == 0) {
      continue;
    }
    signal match = constant1;
    for (unsigned p = 0; p < parity_bits; ++p) {
      const bool bit = (pos >> p) & 1u;
      match = net.create_and(match, syndrome[p].complement_if(!bit));
    }
    net.create_po(net.create_xor(received[pos], match),
                  std::string{"q"}.append(std::to_string(d++)));
  }
  return net;
}

mig_network parity_circuit(unsigned width) {
  mig_network net;
  const word a = make_input_word(net, width, "x");
  net.create_po(parity(net, a), "parity");
  return net;
}

mig_network comparator_circuit(unsigned width) {
  mig_network net;
  const word a = make_input_word(net, width, "a");
  const word b = make_input_word(net, width, "b");
  const signal lt = less_than(net, a, b);
  const signal eq = equals(net, a, b);
  net.create_po(lt, "lt");
  net.create_po(eq, "eq");
  net.create_po(net.create_and(!lt, !eq), "gt");
  return net;
}

mig_network max_circuit(unsigned width, unsigned ways) {
  if (ways < 2) {
    throw std::invalid_argument{"max_circuit: at least two inputs"};
  }
  mig_network net;
  std::vector<word> values;
  values.reserve(ways);
  for (unsigned i = 0; i < ways; ++i) {
    values.push_back(make_input_word(net, width, std::string{"v"}.append(std::to_string(i))));
  }
  while (values.size() > 1) {
    std::vector<word> next;
    for (std::size_t i = 0; i + 1 < values.size(); i += 2) {
      const signal lt = less_than(net, values[i], values[i + 1]);
      next.push_back(mux_word(net, lt, values[i + 1], values[i]));
    }
    if (values.size() % 2 == 1) {
      next.push_back(values.back());
    }
    values = std::move(next);
  }
  make_output_word(net, values.front(), "max");
  return net;
}

namespace {

/// Truncated multiplication keeping `width` low bits.
word multiply_trunc(mig_network& net, const word& a, const word& b) {
  word full = multiply_array(net, a, b);
  full.resize(a.size());
  return full;
}

}  // namespace

mig_network diffeq_circuit(unsigned width) {
  mig_network net;
  const word x = make_input_word(net, width, "x");
  const word y = make_input_word(net, width, "y");
  const word u = make_input_word(net, width, "u");
  const word dx = make_input_word(net, width, "dx");

  // x' = x + dx
  auto [x1, cx] = add_ripple(net, x, dx, constant0);
  (void)cx;

  // y' = y + u*dx
  const word u_dx = multiply_trunc(net, u, dx);
  auto [y1, cy] = add_ripple(net, y, u_dx, constant0);
  (void)cy;

  // u' = u - 3*x*u*dx - 3*y*dx   (3*t = t + 2t)
  auto triple = [&](const word& t) {
    word shifted(t.size(), constant0);
    for (std::size_t i = 1; i < t.size(); ++i) {
      shifted[i] = t[i - 1];
    }
    return add_ripple(net, t, shifted, constant0).first;
  };
  const word x_u = multiply_trunc(net, x, u);
  const word x_u_dx = multiply_trunc(net, x_u, dx);
  const word term1 = triple(x_u_dx);
  const word y_dx = multiply_trunc(net, y, dx);
  const word term2 = triple(y_dx);
  const word u_minus = sub_ripple(net, u, term1).first;
  const word u1 = sub_ripple(net, u_minus, term2).first;

  make_output_word(net, x1, "x1");
  make_output_word(net, y1, "y1");
  make_output_word(net, u1, "u1");
  return net;
}

mig_network int2float_circuit(unsigned width) {
  mig_network net;
  const word v = make_input_word(net, width, "v");

  // Leading-one position (priority scan from the top) and validity.
  word is_leading(width, constant0);
  signal seen = constant0;
  for (unsigned i = width; i-- > 0;) {
    is_leading[i] = net.create_and(v[i], !seen);
    seen = net.create_or(seen, v[i]);
  }

  // Exponent: one-hot encode of the leading position.
  unsigned exp_bits = 1;
  while ((1u << exp_bits) < width) {
    ++exp_bits;
  }
  word exponent(exp_bits, constant0);
  for (unsigned e = 0; e < exp_bits; ++e) {
    word terms;
    for (unsigned i = 0; i < width; ++i) {
      if ((i >> e) & 1u) {
        terms.push_back(is_leading[i]);
      }
    }
    signal acc = constant0;
    for (const signal t : terms) {
      acc = net.create_or(acc, t);
    }
    exponent[e] = acc;
  }

  // Mantissa: normalize by muxing the word under each leading position.
  const unsigned mant_bits = width > 8 ? 8 : width;
  word mantissa(mant_bits, constant0);
  for (unsigned m = 0; m < mant_bits; ++m) {
    signal acc = constant0;
    for (unsigned lead = 0; lead < width; ++lead) {
      // Bit (lead - 1 - m) of v aligns to mantissa bit m (MSB-first).
      if (lead >= m + 1) {
        acc = net.create_or(acc, net.create_and(is_leading[lead], v[lead - 1 - m]));
      }
    }
    mantissa[m] = acc;
  }

  make_output_word(net, exponent, "exp");
  make_output_word(net, mantissa, "mant");
  net.create_po(seen, "nonzero");
  return net;
}

}  // namespace wavemig::gen
