// serve workload: a loopback wire_server over a serving_session in this
// process (shipped defaults except one executor worker and one
// dispatcher). One generator connection sends seeded Poisson arrivals at a
// fixed nominal rate, lightly loaded; requests carry plane-major payloads,
// name their program by fingerprint, and come in mixed sizes, the small
// ones coalescable. One request in 128 is cold:
// it inlines a fresh netlist on a short-lived second connection. This is
// the only workload with wire decode/encode, queueing, coalescing, cache
// misses on the request path and connection churn; it bypasses ingest and
// extract. Latency is timed from when each request was due.

#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/serving.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/metrics.hpp"
#include "wavemig/net/client.hpp"
#include "wavemig/net/server.hpp"

namespace wavebench {

namespace {

using namespace wavemig;

const std::vector<std::string> programs{"adder64", "tv80", "des_area"};
constexpr unsigned phases = 3;
/// Fixed nominal arrival rate (requests/s): the process stays about 20%
/// busy with this mix on a single effective CPU. Fixed, not calibrated per
/// run, so every run offers the same load.
constexpr double nominal_rps = 200.0;
constexpr std::size_t cold_every = 128;
constexpr std::size_t templates_per_program = 30;
constexpr int setup_repeats = 15;
/// Host reference runs after each set-up, about a sixth of its time.
constexpr int reference_runs = 4;
/// Fresh netlists the traced run compiles in process (engine.cache.miss_ms).
constexpr std::size_t miss_probes = 16;
/// p90 limit of the max_rps ladder, and the ladder itself.
constexpr double p90_limit_ms = 5.0;
const std::vector<double> rps_ladder{200, 400, 800, 1600, 3200};
constexpr double ladder_seconds = 1.0;
/// Unmeasured traffic before the measured phase: the first seconds of load
/// after an idle spell ran up to 1.7x slower on a virtual machine.
constexpr double warm_up_seconds = 2.0;

// Payload words go on the wire as they are in memory, and the same words
// feed the in-process replay: the wire is little-endian.
static_assert(std::endian::native == std::endian::little,
              "the serve workload assumes a little-endian host");

/// One request shape: a program, a wave count, its payload planes and the
/// reference output planes.
struct request_template {
  std::size_t program{0};
  std::size_t waves{0};
  net::run_request frame;
  std::vector<std::uint64_t> expected;
  std::size_t num_pos{0};
};

struct cold_job {
  std::string text;
  std::size_t gates{0};
  std::size_t pis{0};
  std::size_t pos{0};
  std::size_t waves{0};
  std::vector<std::uint64_t> planes;
  std::vector<std::uint64_t> expected;
};

struct arrival {
  std::uint64_t due_ns{0};  ///< offset from the phase start
  std::uint32_t tmpl{0};
  bool cold{false};
};

/// Poisson arrivals at `rps` for `seconds`. Shapes are dealt from a
/// reshuffled deck, so every shape is requested equally often and the
/// offered work is alike across seeds; every 128th arrival is cold unless
/// `with_cold` is false.
std::vector<arrival> make_schedule(double rps, double seconds, std::size_t num_templates,
                                   bool with_cold, std::mt19937_64& rng) {
  std::exponential_distribution<double> gap{rps};
  std::vector<std::uint32_t> deck(num_templates);
  for (std::size_t k = 0; k < num_templates; ++k) {
    deck[k] = static_cast<std::uint32_t>(k);
  }
  std::vector<arrival> out;
  double t = 0.0;
  for (std::size_t i = 0;; ++i) {
    t += gap(rng);
    if (t >= seconds) {
      break;
    }
    if (i % num_templates == 0) {
      std::shuffle(deck.begin(), deck.end(), rng);
    }
    out.push_back({static_cast<std::uint64_t>(t * 1e9), deck[i % num_templates],
                   with_cold && i % cold_every == cold_every - 1});
  }
  return out;
}

/// True when the sampled chunks (the last one and one random one) of
/// `words` equal the reference planes.
bool matches(const std::vector<std::uint64_t>& words, std::size_t num_pos, std::size_t waves,
             const std::vector<std::uint64_t>& expected, std::mt19937_64& rng) {
  const std::size_t chunks = (waves + 63) / 64;
  if (words.size() != num_pos * chunks || expected.size() != words.size()) {
    return false;
  }
  const std::size_t sampled[2] = {chunks - 1,
                                  std::uniform_int_distribution<std::size_t>{0, chunks - 1}(rng)};
  for (const std::size_t c : sampled) {
    for (std::size_t p = 0; p < num_pos; ++p) {
      if (words[p * chunks + c] != expected[p * chunks + c]) {
        return false;
      }
    }
  }
  return true;
}

/// Outcome of one phase of arrivals: latency per request (NaN when it
/// failed), and the generator's own timings.
struct phase_result {
  std::vector<double> latency_ms;
  std::vector<double> send_us;
  std::vector<double> late_ms;
  /// Dispatcher queue waits (take_queue_wait_samples), traced phases only.
  std::vector<double> queue_waits;
  /// gates_per_s samples of the cache-miss path, one per cold request (see
  /// wire_phase).
  std::vector<double> miss_gates_per_s;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  double waves_ok{0.0};
  double span_s{0.0};

  /// Each request shape's median latency: the p50_ms / p90_ms population,
  /// so p90_ms is the typical latency of the largest shapes, not a tail.
  /// serve has no gated tail metric: over five seeds the median over
  /// shapes of each shape's p90 spread by 0.57 (quartile distance over
  /// median), and quantiles over every request swung 2x between runs on a
  /// virtual machine (its wake-up tails come and go with the neighbours'
  /// load). The all-request p90 and p99 stay in the report as diagnostics.
  [[nodiscard]] std::vector<double> shape_medians(const std::vector<arrival>& sched) const {
    std::map<std::uint32_t, std::vector<double>> by_shape;
    for (std::size_t i = 0; i < latency_ms.size(); ++i) {
      if (!std::isnan(latency_ms[i]) && !sched[i].cold) {
        by_shape[sched[i].tmpl].push_back(latency_ms[i]);
      }
    }
    std::vector<double> out;
    for (auto& [shape, values] : by_shape) {
      out.push_back(median(std::move(values)));
    }
    return out;
  }

  [[nodiscard]] std::vector<double> ok_latencies() const {
    std::vector<double> out;
    for (const double v : latency_ms) {
      if (!std::isnan(v)) {
        out.push_back(v);
      }
    }
    return out;
  }
};

/// The served process: executor, session and wire server, plus the
/// registered programs' fingerprints.
/// Members are destroyed server first, then session, then executor: each
/// destructor shuts its part down while the parts it uses still live.
struct service {
  std::unique_ptr<engine::parallel_executor> executor;
  std::unique_ptr<engine::serving_session> session;
  std::unique_ptr<net::wire_server> server;
  std::vector<std::uint64_t> fingerprints;
};

class workload {
public:
  workload(const run_options& opts, run_record& out) : opts_{opts}, out_{out} {}

  void run();

private:
  void make_inputs();
  /// Starts a service, registers the programs and runs one request per
  /// program (the first compile).
  void set_up(service& svc);
  phase_result wire_phase(service& svc, const std::vector<arrival>& sched, bool traced);
  phase_result inproc_phase(service& svc, const std::vector<arrival>& sched);
  cold_job& next_cold();
  void count(const phase_result& r) {
    out_.attempted += r.attempted;
    out_.failed += r.failed;
  }

  const run_options& opts_;
  run_record& out_;
  tracer tr_;
  std::vector<mig_network> sources_;
  std::vector<std::string> texts_;
  std::vector<std::shared_ptr<const mig_network>> parsed_;
  std::vector<request_template> templates_;
  std::deque<cold_job> cold_;
  std::size_t cold_used_{0};
  std::uint64_t cold_seed_{0};
};

void workload::make_inputs() {
  auto rng = make_rng(opts_.seed, 300);
  for (std::size_t p = 0; p < programs.size(); ++p) {
    sources_.push_back(gen::build_benchmark(programs[p]));
    texts_.push_back(shuffled_mig_text(sources_.back(), programs[p], rng));
    std::istringstream is{texts_.back()};
    parsed_.push_back(std::make_shared<const mig_network>(io::read_mig(is)));
  }
  // Sizes: 30 per program, log-spaced from 256 to 32,768 waves, each
  // shortened by a seeded 0-1.6%; the 5 smallest (up to 512 waves)
  // coalesce. A fixed ladder keeps the latency distribution alike across
  // seeds (seeded sizes spread p90 by ~40% over five seeds), a continuous
  // one keeps its quantiles off the gaps between size classes, and the
  // sizes are large because with 64-4096-wave requests the wake-up time of
  // idle virtual CPUs dominated latency and p50 swung 2x between runs.
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const mig_network& net = sources_[p];
    for (std::size_t t = 0; t < templates_per_program; ++t) {
      request_template r;
      r.program = p;
      const auto size = static_cast<std::size_t>(
          256.0 * std::exp2(7.0 * static_cast<double>(t) /
                            static_cast<double>(templates_per_program - 1)));
      r.waves = size - std::uniform_int_distribution<std::size_t>{0, size / 64}(rng);
      r.num_pos = net.num_pos();
      auto planes = random_planes(net.num_pis(), r.waves, rng);
      const std::size_t chunks = (r.waves + 63) / 64;
      r.expected.resize(net.num_pos() * chunks);
      reference_eval_planes(net, planes.data(), chunks, r.expected.data(), chunks, r.waves);
      r.frame.phases = phases;
      r.frame.num_pis = static_cast<std::uint32_t>(net.num_pis());
      r.frame.num_waves = r.waves;
      r.frame.payload = std::move(planes);
      templates_.push_back(std::move(r));
    }
  }
  cold_seed_ = make_rng(opts_.seed, 301)();
}

cold_job& workload::next_cold() {
  // Fresh netlists are made ahead of the phase that uses them (see run),
  // so generation never competes with the measured traffic.
  if (cold_used_ == cold_.size()) {
    throw std::logic_error{"serve: more cold requests than prepared netlists"};
  }
  return cold_[cold_used_++];
}

void workload::set_up(service& svc) {
  svc.executor = std::make_unique<engine::parallel_executor>(1);
  svc.session = std::make_unique<engine::serving_session>(
      *svc.executor, buffer_insertion_options{}, engine::cache_limits{}, 1);
  svc.server = std::make_unique<net::wire_server>(*svc.session);
  auto client = net::wire_client::connect(svc.server->port());
  for (const auto& text : texts_) {
    ++out_.attempted;
    svc.fingerprints.push_back(client.register_netlist(text));
  }
  std::mt19937_64 check_rng{cold_seed_};
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const request_template& r = templates_[p * templates_per_program];
    net::run_request req = r.frame;
    req.fingerprint = svc.fingerprints[p];
    ++out_.attempted;
    const auto resp = client.run(std::move(req));
    if (resp.status != net::wire_status::ok ||
        !matches(resp.result.words, r.num_pos, r.waves, r.expected, check_rng)) {
      ++out_.failed;
    }
  }
  client.close();
}

phase_result workload::wire_phase(service& svc, const std::vector<arrival>& sched, bool traced) {
  const std::size_t n = sched.size();
  phase_result r;
  r.latency_ms.assign(n, std::nan(""));
  r.send_us.assign(n, 0.0);
  r.late_ms.assign(n, 0.0);
  r.attempted = n;
  std::vector<cold_job*> cold(n, nullptr);
  std::size_t hot = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sched[i].cold) {
      cold[i] = &next_cold();
    } else {
      ++hot;
    }
  }

  // The generator connection, handshaken like wire_client::dial. One
  // thread writes frames at their due times, another reads responses, so
  // a slow response never delays the next arrival.
  net::tcp_socket sock = net::tcp_socket::connect("127.0.0.1", svc.server->port());
  {
    std::vector<std::uint8_t> preamble;
    net::byte_writer w{preamble};
    w.u32(net::wire_magic);
    w.u32(net::wire_version);
    sock.write_all(preamble.data(), preamble.size());
    std::uint8_t echo[8];
    if (!sock.read_exact(echo, sizeof echo)) {
      throw net::socket_error{"serve: server closed during handshake"};
    }
  }

  const std::uint64_t start = now_ns() + 2'000'000;
  std::atomic<std::size_t> received{0};
  std::atomic<std::uint64_t> last_done{0};
  std::atomic<std::uint64_t> waves_ok{0};
  // When each request's latency starts (see the generator loop below).
  std::vector<std::atomic<std::uint64_t>> origin(n);
  const auto finish = [&](std::size_t i, bool ok, std::size_t waves) {
    const std::uint64_t done = now_ns();
    const std::uint64_t from = origin[i].load(std::memory_order_acquire);
    if (!ok) {
      return;  // its latency stays NaN: counted as failed
    }
    r.latency_ms[i] = static_cast<double>(done - from) / 1e6;
    waves_ok.fetch_add(waves);
    std::uint64_t prev = last_done.load();
    while (prev < done && !last_done.compare_exchange_weak(prev, done)) {
    }
    if (traced) {
      tr_.record("serve.request", -1, i + 1, from, done);
    }
  };

  std::thread reader{[&] {
    std::mt19937_64 check_rng{cold_seed_ ^ 0x5eed};
    std::vector<std::uint8_t> body;
    try {
      while (received.load() < hot) {
        std::uint8_t len_bytes[4];
        if (!sock.read_exact(len_bytes, sizeof len_bytes)) {
          return;
        }
        net::byte_reader lr{len_bytes, sizeof len_bytes};
        body.resize(lr.u32());
        if (!sock.read_exact(body.data(), body.size())) {
          return;
        }
        const net::wire_response resp = net::decode_response_body(body.data(), body.size());
        const std::size_t i = static_cast<std::size_t>(resp.id - 1);
        if (i >= n || cold[i] != nullptr) {
          continue;
        }
        const request_template& t = templates_[sched[i].tmpl];
        finish(i,
               resp.status == net::wire_status::ok &&
                   matches(resp.result.words, t.num_pos, t.waves, t.expected, check_rng),
               t.waves);
        received.fetch_add(1);
      }
    } catch (const std::exception&) {
      // A broken stream: every unanswered request stays failed.
    }
  }};

  // Cold requests: each on a fresh, short-lived connection.
  std::mutex cold_mutex;
  std::condition_variable cold_cv;
  std::deque<std::size_t> cold_queue;
  bool cold_stop = false;
  std::thread cold_worker{[&] {
    std::mt19937_64 check_rng{cold_seed_ ^ 0xc01d};
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lock{cold_mutex};
        cold_cv.wait(lock, [&] { return cold_stop || !cold_queue.empty(); });
        if (cold_queue.empty()) {
          return;
        }
        i = cold_queue.front();
        cold_queue.pop_front();
      }
      const cold_job& job = *cold[i];
      try {
        auto client = net::wire_client::connect(svc.server->port());
        net::run_request req;
        req.id = i + 1;
        req.phases = phases;
        req.num_pis = static_cast<std::uint32_t>(job.pis);
        req.num_waves = job.waves;
        req.netlist = job.text;
        req.payload = job.planes;
        const auto resp = client.run(std::move(req));
        client.close();
        finish(i,
               resp.status == net::wire_status::ok &&
                   matches(resp.result.words, job.pos, job.waves, job.expected, check_rng),
               job.waves);
      } catch (const std::exception&) {
        finish(i, false, 0);
      }
      // The server's cache-miss path for this netlist, called in process
      // (read_mig, then batch_session::compile on a fresh session): one
      // gates_per_s sample per cold request, so the samples span the run.
      try {
        const auto t0 = bench_clock::now();
        std::istringstream is{job.text};
        engine::batch_session fresh{*svc.executor};
        if (fresh.compile(io::read_mig(is), phases)) {
          r.miss_gates_per_s.push_back(static_cast<double>(job.gates) /
                                       (ms_between(t0, bench_clock::now()) / 1e3));
        }
      } catch (const std::exception&) {
        // No sample; the wire request above already carries the verdict.
      }
    }
  }};

  // The generator: send each arrival at its due time. A request the
  // generator was still too busy to send at its due time (writing earlier
  // frames) counts from the due time, so a stall charges the requests
  // behind it. A request it slept past counts from when it was sent: that
  // lateness is the load generator's own timer wake-up, which on a virtual
  // machine reaches milliseconds, not a wait the served system imposed.
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t due = start + sched[i].due_ns;
      std::uint64_t now = now_ns();
      const bool idle = now < due;
      if (idle) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = now_ns();
      }
      origin[i].store(idle ? now : due, std::memory_order_release);
      r.late_ms[i] = static_cast<double>(now - due) / 1e6;
      if (cold[i] != nullptr) {
        std::lock_guard<std::mutex> lock{cold_mutex};
        cold_queue.push_back(i);
        cold_cv.notify_one();
        continue;
      }
      request_template& t = templates_[sched[i].tmpl];
      t.frame.id = i + 1;
      t.frame.fingerprint = svc.fingerprints[t.program];
      const auto prefix = net::encode_run_frame_prefix(t.frame);
      sock.write_all(prefix.data(), prefix.size());
      sock.write_all(t.frame.payload.data(), t.frame.payload.size() * sizeof(std::uint64_t));
      const std::uint64_t sent = now_ns();
      r.send_us[i] = static_cast<double>(sent - now) / 1e3;
      if (traced) {
        // Linked to its request's serve.request span by the request id.
        tr_.record("net.send", -1, i + 1, now, sent);
        // The session keeps the latest 8192 waits; collect well before.
        if (i % 4096 == 4095) {
          const auto waits = svc.session->take_queue_wait_samples();
          r.queue_waits.insert(r.queue_waits.end(), waits.begin(), waits.end());
        }
      }
    }
  } catch (const std::exception& e) {
    // A failed send ends the phase; the unsent requests count as failed.
    out_.note(std::string{"serve: send failed: "} + e.what());
  }

  // Wait for every response (bounded), then stop the helpers.
  const auto wait_until = bench_clock::now() + std::chrono::seconds(20);
  while (received.load() < hot && bench_clock::now() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock{cold_mutex};
    cold_stop = true;
  }
  cold_cv.notify_one();
  cold_worker.join();
  sock.shutdown_both();
  reader.join();

  for (const double v : r.latency_ms) {
    if (std::isnan(v)) {
      ++r.failed;
    }
  }
  if (traced) {
    const auto waits = svc.session->take_queue_wait_samples();
    r.queue_waits.insert(r.queue_waits.end(), waits.begin(), waits.end());
  }
  r.waves_ok = static_cast<double>(waves_ok.load());
  r.span_s = static_cast<double>(last_done.load() - start) / 1e9;
  return r;
}

phase_result workload::inproc_phase(service& svc, const std::vector<arrival>& sched) {
  const std::size_t n = sched.size();
  phase_result r;
  r.latency_ms.assign(n, std::nan(""));
  r.attempted = n;
  std::vector<std::shared_ptr<const mig_network>> cold_nets(n);
  std::vector<cold_job*> cold(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    if (sched[i].cold) {
      cold[i] = &next_cold();
      std::istringstream is{cold[i]->text};
      cold_nets[i] = std::make_shared<const mig_network>(io::read_mig(is));
    }
  }
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t done_count = 0;
  std::mt19937_64 check_rng{cold_seed_ ^ 0x1bc};
  const std::uint64_t start = now_ns() + 2'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    const bool is_cold = cold[i] != nullptr;
    const request_template& t = templates_[sched[i].tmpl];
    // The caller's copy of its plane words is prepared before the due time.
    std::vector<std::uint64_t> words = is_cold ? cold[i]->planes : t.frame.payload;
    const std::size_t waves = is_cold ? cold[i]->waves : t.waves;
    // Latency origin as in wire_phase.
    const std::uint64_t due = start + sched[i].due_ns;
    std::uint64_t now = now_ns();
    const bool idle = now < due;
    if (idle) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = now_ns();
    }
    const std::uint64_t from = idle ? now : due;
    auto on_done = [&, i, is_cold, waves, from](engine::packed_wave_result result,
                                                std::exception_ptr error) {
      const std::uint64_t end = now_ns();
      std::lock_guard<std::mutex> lock{mutex};
      const auto& expected = is_cold ? cold[i]->expected : templates_[sched[i].tmpl].expected;
      const std::size_t pos = is_cold ? cold[i]->pos : templates_[sched[i].tmpl].num_pos;
      if (!error && matches(result.words, pos, waves, expected, check_rng)) {
        r.latency_ms[i] = static_cast<double>(end - from) / 1e6;
        tr_.record("serve.inproc", -1, i + 1, from, end);
      }
      ++done_count;
      all_done.notify_one();
    };
    try {
      svc.session->submit_packed(is_cold ? cold_nets[i] : parsed_[t.program], std::move(words),
                                 waves, phases, std::move(on_done));
    } catch (const std::exception&) {
      std::lock_guard<std::mutex> lock{mutex};
      ++done_count;  // refused: its latency stays NaN, counted as failed
    }
  }
  std::unique_lock<std::mutex> lock{mutex};
  all_done.wait(lock, [&] { return done_count == n; });
  for (const double v : r.latency_ms) {
    if (std::isnan(v)) {
      ++r.failed;
    }
  }
  return r;
}

void workload::run() {
  make_inputs();
  const double seconds = opts_.seconds;
  // The traced run splits its time: untraced, traced, the in-process
  // replay right after the traced phase it is paired with, then untraced
  // again (the two untraced phases bracket the traced one for
  // trace.overhead).
  const double part = opts_.trace ? seconds / 4.0 : seconds;

  // Schedules of every phase first, so the fresh netlists the cold
  // requests inline can be made before any measuring starts.
  auto sched_rng = make_rng(opts_.seed, 1);
  const auto warm_sched =
      make_schedule(nominal_rps, warm_up_seconds, templates_.size(), false, sched_rng);
  const auto main_sched = make_schedule(nominal_rps, part, templates_.size(), true, sched_rng);
  std::vector<std::vector<arrival>> ladder_scheds;
  std::size_t cold_needed = 0;
  for (const auto& a : main_sched) {
    cold_needed += a.cold ? 1 : 0;
  }
  if (opts_.trace) {
    cold_needed *= 4;
    for (const double rps : rps_ladder) {
      ladder_scheds.push_back(
          make_schedule(rps, ladder_seconds, templates_.size(), true, sched_rng));
      for (const auto& a : ladder_scheds.back()) {
        cold_needed += a.cold ? 1 : 0;
      }
    }
    cold_needed += miss_probes;
  }
  for (std::size_t k = 0; k < cold_needed; ++k) {
    gen::random_mig_profile profile;
    profile.inputs = 32;
    profile.gates = 256;
    profile.outputs = 16;
    profile.seed = cold_seed_ + k;
    const mig_network net = gen::random_mig(profile);
    auto rng = make_rng(cold_seed_, k);
    cold_job job;
    job.text = shuffled_mig_text(net, "cold" + std::to_string(k), rng);
    job.gates = net.num_majorities();
    job.pis = net.num_pis();
    job.pos = net.num_pos();
    job.waves = std::uniform_int_distribution<std::size_t>{64, 256}(rng);
    job.planes = random_planes(job.pis, job.waves, rng);
    const std::size_t chunks = (job.waves + 63) / 64;
    job.expected.resize(job.pos * chunks);
    reference_eval_planes(net, job.planes.data(), chunks, job.expected.data(), chunks, job.waves);
    cold_.push_back(std::move(job));
  }

  // ---- set-up, repeated; the last service is the one measured. Each
  // set-up is followed by a few runs of the host reference (common.hpp)
  // and divided by their host factor: the set-up is mostly parsing,
  // balancing and compiling, and unscaled its per-run median spread by
  // 0.32 over twelve short runs, host-scaled by 0.105. ----
  host_reference reference;
  std::vector<double> setup_s;
  std::unique_ptr<service> svc;
  for (int k = 0; k < setup_repeats; ++k) {
    svc.reset();
    svc = std::make_unique<service>();
    const auto t0 = bench_clock::now();
    set_up(*svc);
    const double setup_ms = ms_between(t0, bench_clock::now());
    double reference_ms = 0.0;
    for (int r = 0; r < reference_runs; ++r) {
      reference_ms += reference.run_ms();
    }
    const double host = reference_ms / (reference_runs * host_reference::nominal_ms);
    setup_s.push_back(setup_ms / host / 1e3);
  }

  // ---- warm-up traffic (not measured), then the measured phase ----
  count(wire_phase(*svc, warm_sched, false));
  const phase_result main = wire_phase(*svc, main_sched, false);
  count(main);
  const auto lat = main.ok_latencies();
  const auto shapes = main.shape_medians(main_sched);

  double log_ta = 0.0;
  for (const auto& net : sources_) {
    // The server balances untagged programs with insert_buffers under the
    // session's default options; the gain is that of the served program.
    log_ta += std::log(
        compare_metrics(net, insert_buffers(net).net, tech_scenario::swd().tech).ta_gain);
  }
  out_.e2e("setup_s", median(setup_s), "s");
  out_.e2e("gates_per_s", median(main.miss_gates_per_s), "gates/s");
  out_.e2e("ta_gain", std::exp(log_ta / static_cast<double>(sources_.size())), "ratio");
  // Waves delivered over the phase: at a fixed open-loop rate this is the
  // offered load, and it drops only if the server falls behind.
  out_.e2e("waves_per_s", main.waves_ok / main.span_s, "waves/s");
  out_.e2e("p50_ms", quantile(shapes, 0.5), "ms");
  out_.e2e("p90_ms", quantile(shapes, 0.9), "ms");
  out_.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  char line[256];
  std::snprintf(line, sizeof line,
                "serve.requests %zu rate %.0f/s all-request p50 %.4f p90 %.4f p99 %.4f ms "
                "(n=%zu) gen_late_p99 %.4f ms",
                main_sched.size(), nominal_rps, quantile(lat, 0.5), quantile(lat, 0.9),
                quantile(lat, 0.99), lat.size(), quantile(main.late_ms, 0.99));
  out_.note(line);
  if (!opts_.trace) {
    return;
  }

  // ---- traced run: the same schedule traced, then replayed in-process ----
  const auto metrics_before = svc->session->metrics();
  const auto stats_before = svc->session->stats();
  (void)svc->session->take_queue_wait_samples();
  tr_.enable(true);
  const phase_result traced = wire_phase(*svc, main_sched, true);
  count(traced);
  const auto& waits = traced.queue_waits;
  const auto metrics_after = svc->session->metrics();
  const auto stats_after = svc->session->stats();
  const phase_result inproc = inproc_phase(*svc, main_sched);
  count(inproc);
  tr_.enable(false);
  const phase_result untraced_again = wire_phase(*svc, main_sched, false);
  count(untraced_again);
  tr_.enable(true);

  // Cache-miss probes: the benchmark's own read + batch_session::compile
  // of fresh netlists.
  std::size_t probe_bytes = 0;
  for (std::size_t k = 0; k < miss_probes; ++k) {
    ++out_.attempted;
    const cold_job& job = next_cold();
    probe_bytes += job.text.size();
    scoped_span root{tr_, "serve.cold_probe", -1, k};
    mig_network net;
    {
      scoped_span s{tr_, "io.read_mig", root.index(), k};
      std::istringstream is{job.text};
      net = io::read_mig(is);
    }
    scoped_span s{tr_, "engine.cache.miss", root.index(), k};
    if (!svc->session->session().compile(net, phases)) {
      ++out_.failed;
    }
  }
  // Kernel probe: every template's payload through the served programs.
  double probe_waves = 0.0;
  double probe_op_words = 0.0;
  for (std::size_t i = 0; i < templates_.size(); ++i) {
    const request_template& t = templates_[i];
    const auto program = svc->session->session().compile(*parsed_[t.program], phases);
    std::vector<std::uint64_t> words = t.frame.payload;
    scoped_span root{tr_, "serve.kernel_probe", -1, i};
    engine::wave_batch batch{0};
    {
      scoped_span s{tr_, "engine.ingest", root.index(), i};
      batch = engine::wave_batch::from_plane_words(std::move(words), program->num_pis(), t.waves);
    }
    scoped_span s{tr_, "engine.kernel", root.index(), i};
    (void)engine::run_waves_packed(*program, batch, phases);
    probe_waves += static_cast<double>(t.waves);
    probe_op_words += static_cast<double>(program->num_comb_ops() * ((t.waves + 63) / 64));
  }
  tr_.enable(false);

  // max_rps: the highest ladder rate whose p90 meets the limit with no
  // failures (untraced, short windows; a diagnostic, not gated).
  double max_rps = 0.0;
  for (std::size_t k = 0; k < rps_ladder.size(); ++k) {
    const phase_result rung = wire_phase(*svc, ladder_scheds[k], false);
    count(rung);
    const auto rung_lat = rung.ok_latencies();
    if (rung.failed != 0 || rung_lat.empty() || quantile(rung_lat, 0.9) > p90_limit_ms) {
      break;
    }
    max_rps = rps_ladder[k];
  }

  const auto self = tr_.self_ms();
  const auto counts = tr_.counts();
  const auto get = [](const auto& m, const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto traced_shapes = traced.shape_medians(main_sched);
  const auto inproc_shapes = inproc.shape_medians(main_sched);
  const double wire_p50 = quantile(traced_shapes, 0.5);
  const double inproc_p50 = quantile(inproc_shapes, 0.5);

  const double completed =
      static_cast<double>(metrics_after.requests_completed - metrics_before.requests_completed);
  const double hits = static_cast<double>(stats_after.hits - stats_before.hits);
  const double misses = static_cast<double>(stats_after.misses - stats_before.misses);
  const double read_ms = get(self, "io.read_mig");
  const double kernel_ms = get(self, "engine.kernel");
  out_.layer("io.read_mig.ms", read_ms, "ms");
  out_.layer("io.read_mig.mb_per_s", static_cast<double>(probe_bytes) / 1e6 / (read_ms / 1e3),
             "MB/s");
  out_.layer("engine.cache.miss_ms", get(self, "engine.cache.miss") / get(counts, "engine.cache.miss"),
             "ms");
  out_.layer("engine.cache.hit_ratio", hits / (hits + misses), "ratio");
  out_.layer("engine.serving.queue_wait_p50_ms", quantile(waits, 0.5), "ms");
  out_.layer("engine.serving.queue_wait_p90_ms", quantile(waits, 0.9), "ms");
  out_.layer("engine.serving.inproc_p50_ms", inproc_p50, "ms");
  out_.layer("engine.serving.inproc_p90_ms", quantile(inproc_shapes, 0.9), "ms");
  out_.layer("engine.serving.coalesced_share",
             static_cast<double>(metrics_after.coalesced_requests -
                                 metrics_before.coalesced_requests) /
                 completed,
             "ratio");
  out_.layer("engine.serving.fused_passes",
             static_cast<double>(metrics_after.fused_passes - metrics_before.fused_passes),
             "count");
  out_.layer("engine.ingest.ns_per_wave", get(self, "engine.ingest") * 1e6 / probe_waves, "ns");
  out_.layer("engine.ingest.share",
             get(self, "engine.ingest") / (get(self, "engine.ingest") + kernel_ms), "ratio");
  out_.layer("engine.kernel.ns_per_wave", kernel_ms * 1e6 / probe_waves, "ns");
  out_.layer("engine.kernel.op_words_per_s", probe_op_words / (kernel_ms / 1e3), "1/s");
  out_.layer("engine.kernel.bytes_moved", probe_op_words * 32.0, "B");
  out_.layer("net.overhead_p50_ms", wire_p50 - inproc_p50, "ms");
  out_.layer("net.send_us", quantile(traced.send_us, 0.5), "us");
  out_.layer("net.refused", static_cast<double>(svc->server->stats().requests_refused), "count");
  out_.layer("serve.p90_all_ms", quantile(lat, 0.9), "ms");
  out_.layer("serve.p99_ms", quantile(lat, 0.99), "ms");
  out_.layer("serve.p99_n", static_cast<double>(lat.size()), "count");
  out_.layer("serve.max_rps", max_rps, "1/s");
  out_.layer("serve.gen_late_ms", quantile(main.late_ms, 0.99), "ms");
  // The untraced wire p50, from the phases before and after the traced one.
  const double untraced_p50 =
      (quantile(shapes, 0.5) +
       quantile(untraced_again.shape_medians(main_sched), 0.5)) /
      2.0;
  out_.layer("trace.overhead", wire_p50 / untraced_p50 - 1.0, "ratio");

  // Reconciliation, per request shape: the in-process median plus the
  // median of the paired (same schedule slot) wire-minus-in-process
  // differences of the traced phase must rebuild the untraced end-to-end
  // p50 over shapes. The gap holds the tracing overhead and the noise
  // between phases run seconds apart.
  std::map<std::uint32_t, std::vector<double>> diffs;
  std::map<std::uint32_t, std::vector<double>> in_shape;
  for (std::size_t i = 0; i < main_sched.size(); ++i) {
    if (!main_sched[i].cold && !std::isnan(traced.latency_ms[i]) &&
        !std::isnan(inproc.latency_ms[i])) {
      diffs[main_sched[i].tmpl].push_back(traced.latency_ms[i] - inproc.latency_ms[i]);
      in_shape[main_sched[i].tmpl].push_back(inproc.latency_ms[i]);
    }
  }
  std::vector<double> rebuilt_shapes;
  for (auto& [shape, d] : diffs) {
    rebuilt_shapes.push_back(median(in_shape[shape]) + median(d));
  }
  const double rebuilt = quantile(rebuilt_shapes, 0.5);
  const double gap = std::abs(untraced_p50 - rebuilt) / untraced_p50;
  constexpr double tolerance = 0.15;
  out_.layer("reconcile.gap", gap, "ratio");
  out_.layer("reconcile.tolerance", tolerance, "ratio");
  std::snprintf(line, sizeof line,
                "reconcile serve: p50 over shapes of (in-process median + paired net overhead "
                "median) %.4f ms vs untraced wire p50 %.4f ms (gap %.4f, tolerance %.2f) %s",
                rebuilt, untraced_p50, gap, tolerance, gap <= tolerance ? "PASS" : "FAIL");
  out_.note(line);
  if (gap > tolerance) {
    ++out_.failed;
  }
  if (!opts_.trace_dir.empty()) {
    tr_.write(opts_.trace_dir + "/serve-seed" + std::to_string(opts_.seed) + ".jsonl");
  }
}

}  // namespace

void run_serve(const run_options& opts, run_record& out) {
  workload w{opts, out};
  w.run();
}

}  // namespace wavebench
