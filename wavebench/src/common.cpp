#include "common.hpp"

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/fanout_restriction.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/loss_budget.hpp"

#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace wavebench {

using wavemig::mig_network;
using wavemig::node_index;
using wavemig::node_kind;
using wavemig::signal;
using namespace wavemig;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields{line.substr(6)};
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::mt19937_64 make_rng(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream), so neighbouring seeds and streams start
  // from unrelated generator states.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return std::mt19937_64{z ^ (z >> 31)};
}

std::string shuffled_mig_text(const mig_network& net, const std::string& model,
                              std::mt19937_64& rng) {
  const std::size_t n = net.num_nodes();
  std::vector<std::string> names(n);
  std::unordered_set<std::string> taken;
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    names[net.pis()[i]] = net.pi_name(i);
    taken.insert(net.pi_name(i));
  }
  std::vector<std::uint32_t> remain(n, 0);
  std::vector<std::vector<node_index>> consumers(n);
  std::vector<node_index> ready;
  net.foreach_node([&](node_index v) {
    if (net.is_constant(v) || net.is_pi(v)) {
      return;
    }
    for (const signal s : net.fanins(v)) {
      const node_index u = s.index();
      if (!net.is_constant(u) && !net.is_pi(u)) {
        ++remain[v];
        consumers[u].push_back(v);
      }
    }
    if (remain[v] == 0) {
      ready.push_back(v);
    }
  });

  const auto operand = [&](signal s) {
    if (net.is_constant(s.index())) {
      return std::string{s.is_complemented() ? "1" : "0"};
    }
    return (s.is_complemented() ? "!" : "") + names[s.index()];
  };

  std::ostringstream os;
  os << ".model " << model << "\n.inputs";
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    os << ' ' << net.pi_name(i);
  }
  os << '\n';
  std::size_t emitted = 0;
  while (!ready.empty()) {
    std::uniform_int_distribution<std::size_t> pick{0, ready.size() - 1};
    const std::size_t at = pick(rng);
    const node_index v = ready[at];
    ready[at] = ready.back();
    ready.pop_back();
    // Named in emission order, so the names carry nothing of the original
    // node order either.
    do {
      names[v] = std::to_string(emitted++);
      names[v].insert(names[v].begin(), 'w');
    } while (taken.count(names[v]) != 0);
    const auto fis = net.fanins(v);
    switch (net.kind(v)) {
      case node_kind::majority: {
        std::array<signal, 3> ops{fis[0], fis[1], fis[2]};
        std::shuffle(ops.begin(), ops.end(), rng);
        os << names[v] << " = MAJ(" << operand(ops[0]) << ", " << operand(ops[1]) << ", "
           << operand(ops[2]) << ")\n";
        break;
      }
      case node_kind::buffer:
        os << names[v] << " = BUF(" << operand(fis[0]) << ")\n";
        break;
      case node_kind::fanout:
        os << names[v] << " = FOG(" << operand(fis[0]) << ")\n";
        break;
      default:
        break;
    }
    for (const node_index c : consumers[v]) {
      if (--remain[c] == 0) {
        ready.push_back(c);
      }
    }
  }
  for (const auto& po : net.pos()) {
    os << ".output " << po.name << " = " << operand(po.driver) << '\n';
  }
  return os.str();
}

void reference_eval_planes(const mig_network& net, const std::uint64_t* pi_planes,
                           std::size_t pi_stride, std::uint64_t* po_planes,
                           std::size_t po_stride, std::size_t num_waves) {
  const std::size_t num_chunks = (num_waves + 63) / 64;
  const std::size_t tail = num_waves % 64;
  const std::uint64_t last_mask = tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
  std::vector<std::uint64_t> value(net.num_nodes(), 0);
  const auto read = [&](signal s) {
    const std::uint64_t v = value[s.index()];
    return s.is_complemented() ? ~v : v;
  };
  for (std::size_t c = 0; c < num_chunks; ++c) {
    net.foreach_node([&](node_index v) {
      switch (net.kind(v)) {
        case node_kind::constant:
          value[v] = 0;
          break;
        case node_kind::primary_input:
          value[v] = pi_planes[net.pi_position(v) * pi_stride + c];
          break;
        case node_kind::majority: {
          const auto fis = net.fanins(v);
          const std::uint64_t a = read(fis[0]);
          const std::uint64_t b = read(fis[1]);
          const std::uint64_t d = read(fis[2]);
          value[v] = (a & b) | (a & d) | (b & d);
          break;
        }
        case node_kind::buffer:
        case node_kind::fanout:
          value[v] = read(net.fanins(v)[0]);
          break;
      }
    });
    for (std::size_t p = 0; p < net.num_pos(); ++p) {
      po_planes[p * po_stride + c] =
          read(net.po_signal(p)) & (c + 1 == num_chunks ? last_mask : ~std::uint64_t{0});
    }
  }
}

std::vector<std::uint64_t> random_planes(std::size_t num_pis, std::size_t num_waves,
                                         std::mt19937_64& rng) {
  const std::size_t chunks = (num_waves + 63) / 64;
  std::vector<std::uint64_t> words(num_pis * chunks);
  const std::size_t tail = num_waves % 64;
  const std::uint64_t last_mask = tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
  for (std::size_t i = 0; i < num_pis; ++i) {
    for (std::size_t c = 0; c < chunks; ++c) {
      words[i * chunks + c] = rng() & (c + 1 == chunks ? last_mask : ~std::uint64_t{0});
    }
  }
  return words;
}

host_reference::host_reference() {
  constexpr std::size_t inputs = 64;
  constexpr std::size_t gates = 2048;
  std::mt19937_64 rng{0x5eedf00d};
  std::ostringstream os;
  os << ".model reference\n.inputs";
  for (std::size_t i = 0; i < inputs; ++i) {
    os << " i" << i;
  }
  os << '\n';
  const auto name = [&](std::size_t k) {
    if (k < inputs) {
      os << 'i' << k;
    } else {
      os << 'g' << k - inputs;
    }
  };
  for (std::size_t k = inputs; k < inputs + gates; ++k) {
    std::uniform_int_distribution<std::size_t> pick{0, k - 1};
    name(k);
    os << " = MAJ(";
    for (int f = 0; f < 3; ++f) {
      os << (f == 0 ? "" : ", ") << ((rng() & 1u) != 0 ? "!" : "");
      name(pick(rng));
    }
    os << ")\n";
  }
  text_ = os.str();
  (void)run_ms();
}

double host_reference::run_ms() {
  const auto t0 = bench_clock::now();
  std::unordered_map<std::string, std::uint32_t> ids;
  std::vector<std::uint32_t> level;
  std::istringstream is{text_};
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(".inputs", 0) == 0) {
      std::istringstream names{line.substr(7)};
      std::string pi;
      while (names >> pi) {
        ids.emplace(pi, static_cast<std::uint32_t>(level.size()));
        level.push_back(0);
      }
      continue;
    }
    const std::size_t eq = line.find(" = MAJ(");
    if (eq == std::string::npos) {
      continue;
    }
    std::uint32_t depth = 0;
    std::size_t at = eq + 7;
    for (int f = 0; f < 3; ++f) {
      const std::size_t end = line.find_first_of(",)", at);
      std::string operand = line.substr(at, end - at);
      operand.erase(0, operand.find_first_not_of(" !"));
      depth = std::max(depth, level[ids.at(operand)]);
      at = end + 1;
    }
    ids.emplace(line.substr(0, eq), static_cast<std::uint32_t>(level.size()));
    level.push_back(depth + 1);
  }
  std::uint64_t checksum = 0;
  for (const std::uint32_t l : level) {
    checksum = checksum * 31 + l;
  }
  const double ms = ms_between(t0, bench_clock::now());
  if (checksum_ == 0) {
    checksum_ = checksum;
  } else if (checksum != checksum_) {
    throw std::logic_error{"host_reference: result changed between runs"};
  }
  return ms;
}

text_program text_to_program(const std::string& text, const tech_scenario& scenario,
                             const engine::compile_options& options, tracer& tr,
                             const std::string& root, std::uint64_t request) {
  scoped_span top{tr, root, -1, request};
  text_program out;
  {
    scoped_span s{tr, "io.read_mig", top.index(), request};
    std::istringstream is{text};
    out.input = io::read_mig(is);
  }
  {
    scoped_span s{tr, "core.wave_pipeline", top.index(), request};
    pipeline_options opts;
    opts.scenario = scenario;
    out.pipelined = wave_pipeline(out.input, opts);
  }
  {
    scoped_span s{tr, "engine.compile", top.index(), request};
    out.program = std::make_shared<const engine::compiled_netlist>(out.pipelined.net, options);
  }
  return out;
}

void trace_pipeline_passes(const mig_network& input, const tech_scenario& scenario, tracer& tr,
                           std::uint64_t request) {
  scoped_span root{tr, "core.anatomy", -1, request};
  {
    scoped_span s{tr, "mig.levels", root.index(), request};
    (void)compute_stats(input);
  }
  mig_network current = input;
  const auto limit = scenario.fanout_limit;
  if (limit) {
    scoped_span s{tr, "core.restrict_fanout", root.index(), request};
    fanout_restriction_options fo;
    fo.limit = *limit;
    current = restrict_fanout(current, fo).net;
  }
  if (const auto budget = scenario.max_unregenerated_levels()) {
    scoped_span s{tr, "core.loss_budget", root.index(), request};
    loss_budget_options lb;
    lb.max_unregenerated_levels = budget;
    current = enforce_loss_budget(current, lb).net;
  }
  {
    scoped_span s{tr, "core.insert_buffers", root.index(), request};
    buffer_insertion_options bi;
    if (limit) {
      bi.strategy = buffer_strategy::tree;
      bi.fanout_limit = limit;
    }
    current = insert_buffers(current, bi).net;
  }
  {
    scoped_span s{tr, "mig.levels", root.index(), request};
    (void)compute_stats(current);
  }
}

std::uint32_t tracer::intern(const std::string& name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return i;
    }
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void tracer::record(const std::string& name, std::int64_t parent, std::uint64_t request,
                    std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back({intern(name), parent, request, start_ns, end_ns});
}

std::int64_t tracer::open(const std::string& name, std::int64_t parent, std::uint64_t request) {
  std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back({intern(name), parent, request, now_ns(), 0});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void tracer::close(std::int64_t index) {
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock{mutex_};
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::map<std::string, double> tracer::self_ms() const {
  std::lock_guard<std::mutex> lock{mutex_};
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out[names_[s.name]] += (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) / 1e6;
  }
  return out;
}

double tracer::self_ms_sum(std::initializer_list<const char*> names) const {
  const auto self = self_ms();
  double sum = 0.0;
  for (const char* name : names) {
    const auto it = self.find(name);
    sum += it == self.end() ? 0.0 : it->second;
  }
  return sum;
}

std::map<std::string, double> tracer::total_ms() const {
  std::lock_guard<std::mutex> lock{mutex_};
  std::map<std::string, double> out;
  for (const auto& s : spans_) {
    out[names_[s.name]] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return out;
}

std::map<std::string, std::size_t> tracer::counts() const {
  std::lock_guard<std::mutex> lock{mutex_};
  std::map<std::string, std::size_t> out;
  for (const auto& s : spans_) {
    ++out[names_[s.name]];
  }
  return out;
}

void tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock{mutex_};
  std::ofstream os{path};
  if (!os) {
    throw std::runtime_error{"tracer: cannot write '" + path + "'"};
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << names_[s.name] << "\",\"parent\":" << s.parent
       << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

}  // namespace wavebench
