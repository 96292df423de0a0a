#include "wavemig/gen/control.hpp"

#include <random>
#include <stdexcept>
#include <vector>

#include "wavemig/gen/arith.hpp"
#include "wavemig/synthesis.hpp"
#include "wavemig/truth_table.hpp"

namespace wavemig::gen {

mig_network control_circuit(const control_profile& profile) {
  if (profile.inputs == 0 || profile.outputs == 0) {
    throw std::invalid_argument{"control_circuit: inputs and outputs must be positive"};
  }
  mig_network net;
  std::mt19937_64 rng{profile.seed};

  const word in = make_input_word(net, profile.inputs, "in");
  word state;
  if (profile.state_bits > 0) {
    state = make_input_word(net, profile.state_bits, "st");
  }

  // One-hot state decode lines shared by all outputs.
  std::vector<signal> decoded;
  if (profile.state_bits > 0) {
    for (unsigned v = 0; v < (1u << profile.state_bits); ++v) {
      signal line = constant1;
      for (unsigned b = 0; b < profile.state_bits; ++b) {
        line = net.create_and(line, state[b].complement_if(((v >> b) & 1u) == 0));
      }
      decoded.push_back(line);
    }
  }

  std::uniform_int_distribution<unsigned> pick_input(0, profile.inputs - 1);
  std::uniform_int_distribution<unsigned> coin(0, 1);
  const unsigned max_literals = std::max(2u, profile.literals_per_cube);
  std::uniform_int_distribution<unsigned> pick_width(2, max_literals);

  for (unsigned o = 0; o < profile.outputs; ++o) {
    signal sum = constant0;
    for (unsigned c = 0; c < profile.cubes_per_output; ++c) {
      signal cube = constant1;
      const unsigned width = pick_width(rng);
      for (unsigned l = 0; l < width; ++l) {
        const signal lit = in[pick_input(rng)].complement_if(coin(rng) == 1);
        cube = net.create_and(cube, lit);
      }
      if (!decoded.empty()) {
        std::uniform_int_distribution<std::size_t> pick_state(0, decoded.size() - 1);
        cube = net.create_and(cube, decoded[pick_state(rng)]);
      }
      sum = net.create_or(sum, cube);
    }
    net.create_po(sum, "out" + std::to_string(o));
  }
  return net;
}

mig_network fsm_circuit(unsigned state_bits, unsigned input_bits, std::uint64_t seed) {
  const unsigned vars = state_bits + input_bits;
  if (vars == 0 || vars > 16) {
    throw std::invalid_argument{"fsm_circuit: state_bits + input_bits in [1,16]"};
  }
  mig_network net;
  std::mt19937_64 rng{seed};

  std::vector<signal> inputs;
  for (unsigned b = 0; b < state_bits; ++b) {
    inputs.push_back(net.create_pi(std::string{"s"}.append(std::to_string(b))));
  }
  for (unsigned b = 0; b < input_bits; ++b) {
    inputs.push_back(net.create_pi(std::string{"i"}.append(std::to_string(b))));
  }

  for (unsigned b = 0; b < state_bits; ++b) {
    truth_table tt{vars};
    for (std::uint64_t row = 0; row < tt.num_bits(); ++row) {
      tt.set_bit(row, (rng() & 1u) != 0);
    }
    net.create_po(synthesize_truth_table(net, tt, inputs), "ns" + std::to_string(b));
  }
  return net;
}

}  // namespace wavemig::gen
