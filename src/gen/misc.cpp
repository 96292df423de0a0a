#include "wavemig/gen/misc.hpp"

#include <stdexcept>

#include "wavemig/gen/arith.hpp"

namespace wavemig::gen {

mig_network voter_circuit(unsigned inputs) {
  if (inputs < 3 || inputs % 2 == 0) {
    throw std::invalid_argument{"voter_circuit: odd input count >= 3 required"};
  }
  mig_network net;
  const word in = make_input_word(net, inputs, "v");
  const word count = popcount(net, in);

  // Majority when count >= (inputs+1)/2: compare against the constant
  // threshold with a borrow chain (count - threshold has no borrow).
  const unsigned threshold = (inputs + 1) / 2;
  word threshold_word(count.size(), constant0);
  for (std::size_t b = 0; b < count.size(); ++b) {
    if ((threshold >> b) & 1u) {
      threshold_word[b] = constant1;
    }
  }
  const signal lt = less_than(net, count, threshold_word);
  net.create_po(!lt, "majority");
  return net;
}

mig_network barrel_shifter_circuit(unsigned width) {
  if (width < 2 || (width & (width - 1)) != 0) {
    throw std::invalid_argument{"barrel_shifter_circuit: width must be a power of two"};
  }
  unsigned stages = 0;
  while ((1u << stages) < width) {
    ++stages;
  }
  mig_network net;
  word value = make_input_word(net, width, "x");
  const word amount = make_input_word(net, stages, "sh");

  for (unsigned s = 0; s < stages; ++s) {
    const unsigned dist = 1u << s;
    word rotated(width, constant0);
    for (unsigned i = 0; i < width; ++i) {
      rotated[(i + dist) % width] = value[i];
    }
    value = mux_word(net, amount[s], rotated, value);
  }
  make_output_word(net, value, "y");
  return net;
}

mig_network decoder_circuit(unsigned bits) {
  if (bits == 0 || bits > 12) {
    throw std::invalid_argument{"decoder_circuit: bits in [1,12]"};
  }
  mig_network net;
  const word sel = make_input_word(net, bits, "a");
  for (unsigned v = 0; v < (1u << bits); ++v) {
    // Balanced AND tree over the literals.
    word literals;
    literals.reserve(bits);
    for (unsigned b = 0; b < bits; ++b) {
      literals.push_back(sel[b].complement_if(((v >> b) & 1u) == 0));
    }
    while (literals.size() > 1) {
      word next;
      for (std::size_t i = 0; i + 1 < literals.size(); i += 2) {
        next.push_back(net.create_and(literals[i], literals[i + 1]));
      }
      if (literals.size() % 2 == 1) {
        next.push_back(literals.back());
      }
      literals = std::move(next);
    }
    net.create_po(literals.front(), std::string{"d"}.append(std::to_string(v)));
  }
  return net;
}

mig_network priority_encoder_circuit(unsigned width) {
  if (width < 2) {
    throw std::invalid_argument{"priority_encoder_circuit: width >= 2"};
  }
  mig_network net;
  const word req = make_input_word(net, width, "r");

  // highest[i] = r[i] & !r[i+1] & ... & !r[width-1], built with a shared
  // "none above" chain.
  word highest(width, constant0);
  signal none_above = constant1;
  for (unsigned i = width; i-- > 0;) {
    highest[i] = net.create_and(req[i], none_above);
    none_above = net.create_and(none_above, !req[i]);
  }

  unsigned bits = 1;
  while ((1u << bits) < width) {
    ++bits;
  }
  for (unsigned b = 0; b < bits; ++b) {
    signal acc = constant0;
    for (unsigned i = 0; i < width; ++i) {
      if ((i >> b) & 1u) {
        acc = net.create_or(acc, highest[i]);
      }
    }
    net.create_po(acc, "idx" + std::to_string(b));
  }
  net.create_po(!none_above, "valid");
  return net;
}

mig_network arbiter_circuit(unsigned width) {
  if (width < 2 || (width & (width - 1)) != 0) {
    throw std::invalid_argument{"arbiter_circuit: width must be a power of two"};
  }
  unsigned bits = 0;
  while ((1u << bits) < width) {
    ++bits;
  }
  mig_network net;
  const word req = make_input_word(net, width, "r");
  const word pointer = make_input_word(net, bits, "p");

  // Decode the round-robin pointer.
  word is_ptr(width, constant0);
  for (unsigned v = 0; v < width; ++v) {
    signal line = constant1;
    for (unsigned b = 0; b < bits; ++b) {
      line = net.create_and(line, pointer[b].complement_if(((v >> b) & 1u) == 0));
    }
    is_ptr[v] = line;
  }

  // Grant the first request at or after the pointer (wrap-around): for each
  // candidate position, build priority chains from every pointer value.
  for (unsigned g = 0; g < width; ++g) {
    signal grant = constant0;
    for (unsigned p = 0; p < width; ++p) {
      // With pointer p, position g wins iff req[g] and no request in the
      // cyclic range [p, g).
      signal none_before = constant1;
      for (unsigned step = 0; step < width; ++step) {
        const unsigned pos = (p + step) % width;
        if (pos == g) {
          break;
        }
        none_before = net.create_and(none_before, !req[pos]);
      }
      grant = net.create_or(grant, net.create_and(is_ptr[p], net.create_and(req[g], none_before)));
    }
    net.create_po(grant, std::string{"g"}.append(std::to_string(g)));
  }
  return net;
}

mig_network wide_io_circuit(unsigned inputs, unsigned outputs) {
  if (outputs == 0 || inputs < 3 * static_cast<unsigned long long>(outputs)) {
    throw std::invalid_argument{"wide_io_circuit: inputs >= 3 * outputs >= 3 required"};
  }
  if (inputs > (1u << 16)) {
    throw std::invalid_argument{"wide_io_circuit: at most 65536 inputs"};
  }
  mig_network net;
  const word in = make_input_word(net, inputs, "w");
  for (unsigned j = 0; j < outputs; ++j) {
    // The strided slice keeps every output's cone spread across the whole
    // input range, so no PI plane is dead weight.
    word layer;
    for (unsigned i = j; i < inputs; i += outputs) {
      layer.push_back(in[i]);
    }
    // Triple-reduce with majority gates; a 2-signal remainder folds with OR.
    while (layer.size() > 1) {
      word next;
      std::size_t i = 0;
      for (; i + 2 < layer.size(); i += 3) {
        next.push_back(net.create_maj(layer[i], layer[i + 1], layer[i + 2]));
      }
      if (i + 1 < layer.size()) {
        next.push_back(net.create_or(layer[i], layer[i + 1]));
      } else if (i < layer.size()) {
        next.push_back(layer[i]);
      }
      layer = std::move(next);
    }
    net.create_po(layer.front(), std::string{"m"}.append(std::to_string(j)));
  }
  return net;
}

}  // namespace wavemig::gen
