// Coverage for the network serving front-end (net/): the wire protocol's
// encode/decode pair, the loopback differential pin (wire responses
// bit-identical to in-process submit_packed), hostile-bytes framing
// behavior, the production policies mapped onto the serving layer
// (admission, deadlines, draining), graceful-shutdown flushing, the release
// of closed connections, and seeded mutation fuzzing of the decoders the
// server and client run. The server/client threading runs under the TSan
// CI job alongside test_parallel_engine and test_serving.

#include "wavemig/net/server.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/serving.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/net/client.hpp"
#include "wavemig/net/protocol.hpp"
#include "wavemig/net/socket.hpp"
#include "wavemig/tech_scenario.hpp"

namespace wavemig {
namespace {

/// Random plane-major words for `num_pis` planes of `num_waves` waves, tail
/// bits cleared so they pass strict validation unchanged.
std::vector<std::uint64_t> random_planes(std::size_t num_pis, std::size_t num_waves,
                                         std::uint64_t seed) {
  const std::size_t chunks = (num_waves + 63) / 64;
  std::mt19937_64 rng{seed};
  std::vector<std::uint64_t> words(num_pis * chunks);
  for (auto& word : words) {
    word = rng();
  }
  if (const std::size_t tail = num_waves % 64; tail != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << tail) - 1;
    for (std::size_t p = 0; p < num_pis; ++p) {
      words[(p + 1) * chunks - 1] &= mask;
    }
  }
  return words;
}

std::string mig_text(const mig_network& net) {
  std::ostringstream os;
  io::write_mig(net, os);
  return os.str();
}

/// One executor + session + server stack on an ephemeral loopback port.
struct loopback_stack {
  explicit loopback_stack(unsigned workers = 2, unsigned dispatchers = 1,
                          net::server_options options = {})
      : executor{workers},
        serving{executor, {}, {}, dispatchers},
        server{serving, options} {}

  engine::parallel_executor executor;
  engine::serving_session serving;
  net::wire_server server;
};

net::run_request make_run(std::uint64_t fingerprint, const mig_network& net,
                          std::size_t num_waves, unsigned phases,
                          std::vector<std::uint64_t> payload) {
  net::run_request req;
  req.fingerprint = fingerprint;
  req.num_pis = static_cast<std::uint32_t>(net.num_pis());
  req.num_waves = num_waves;
  req.phases = phases;
  req.payload = std::move(payload);
  return req;
}

// ------------------------------------------------- protocol round trips ---

TEST(wire_protocol, run_frame_round_trips_through_encode_and_decode) {
  net::run_request req;
  req.id = 7;
  req.priority = 3;
  req.flags = net::run_flag_mask_tail_bits;
  req.deadline_ms = 250;
  req.phases = 4;
  req.num_pis = 9;
  req.fingerprint = 0x1122334455667788ull;
  req.num_waves = 130;
  req.scenario = "SWD";
  req.netlist = "# inline\n";
  req.payload = {1, 2, 3};

  auto frame = net::encode_run_frame_prefix(req);
  const std::size_t payload_at = frame.size();
  frame.resize(frame.size() + req.payload.size() * sizeof(std::uint64_t));
  std::memcpy(frame.data() + payload_at, req.payload.data(),
              req.payload.size() * sizeof(std::uint64_t));

  // Decode skips the u32 length word the encoder prepended.
  net::run_request out;
  const std::size_t body_size = frame.size() - 4;
  const std::size_t payload_offset = net::decode_run_body(frame.data() + 4, body_size, out);
  EXPECT_EQ(out.id, req.id);
  EXPECT_EQ(out.priority, req.priority);
  EXPECT_EQ(out.flags, req.flags);
  EXPECT_EQ(out.deadline_ms, req.deadline_ms);
  EXPECT_EQ(out.phases, req.phases);
  EXPECT_EQ(out.num_pis, req.num_pis);
  EXPECT_EQ(out.fingerprint, req.fingerprint);
  EXPECT_EQ(out.num_waves, req.num_waves);
  EXPECT_EQ(out.scenario, req.scenario);
  EXPECT_EQ(out.netlist, req.netlist);
  EXPECT_EQ(body_size - payload_offset, req.payload.size() * sizeof(std::uint64_t));

  // Truncations and length disagreements are protocol errors, not UB.
  EXPECT_THROW((void)net::decode_run_body(frame.data() + 4, net::run_fixed_bytes - 2, out),
               net::protocol_error);
  EXPECT_THROW((void)net::decode_run_body(frame.data() + 4, net::run_fixed_bytes + 1, out),
               net::protocol_error);
}

/// A whole response frame (length word included): the prefix, then the
/// result words for ok responses.
std::vector<std::uint8_t> response_frame(const net::wire_response& resp) {
  auto frame = net::encode_response_frame_prefix(resp);
  if (resp.status == net::wire_status::ok) {
    const std::size_t words_at = frame.size();
    frame.resize(frame.size() + resp.result.words.size() * sizeof(std::uint64_t));
    if (!resp.result.words.empty()) {
      std::memcpy(frame.data() + words_at, resp.result.words.data(),
                  resp.result.words.size() * sizeof(std::uint64_t));
    }
  }
  return frame;
}

TEST(wire_protocol, response_frames_round_trip_for_ok_and_error) {
  net::wire_response ok;
  ok.id = 11;
  ok.status = net::wire_status::ok;
  ok.fingerprint = 42;
  ok.result.num_pos = 2;
  ok.result.num_waves = 65;
  ok.result.words = {5, 1, 7, 0};  // wave 64 lives in bit 0 of each plane's last word
  ok.result.ticks = 99;
  ok.result.latency_ticks = 12;
  ok.result.initiation_interval = 1;
  ok.result.waves_in_flight = 12;

  const auto frame = response_frame(ok);
  const auto round = net::decode_response_body(frame.data() + 4, frame.size() - 4);
  EXPECT_EQ(round.id, ok.id);
  EXPECT_EQ(round.status, net::wire_status::ok);
  EXPECT_EQ(round.fingerprint, ok.fingerprint);
  EXPECT_EQ(round.result.words, ok.result.words);
  EXPECT_EQ(round.result.num_waves, ok.result.num_waves);
  EXPECT_EQ(round.result.ticks, ok.result.ticks);

  net::wire_response err;
  err.id = 12;
  err.status = net::wire_status::admission_rejected;
  err.message = "backlog full";
  const auto err_frame = net::encode_response_frame_prefix(err);
  const auto err_round = net::decode_response_body(err_frame.data() + 4, err_frame.size() - 4);
  EXPECT_EQ(err_round.id, err.id);
  EXPECT_EQ(err_round.status, net::wire_status::admission_rejected);
  EXPECT_EQ(err_round.message, err.message);

  // Ok responses whose words disagree with their declared shape, or carry
  // bits above num_waves, are protocol errors in both decoders: the
  // whole-body decoder and the client's streaming read.
  std::vector<net::wire_response> hostile;
  const auto shaped = [&](std::size_t num_pos, std::size_t num_waves,
                          std::vector<std::uint64_t> words) {
    net::wire_response resp = ok;
    resp.result.num_pos = num_pos;
    resp.result.num_waves = num_waves;
    resp.result.words = std::move(words);
    hostile.push_back(std::move(resp));
  };
  shaped(64, 1000, {0});                                     // 1 word for 64 x 16
  shaped(2, 65, {5, 1, 7});                                  // one word short
  shaped(2, 65, {5, 1, 7, 0, 0});                            // one word over
  shaped(1, ~std::size_t{0}, {});                            // (num_waves + 63) wraps to 0
  shaped(0, 64, {1});                                        // words with no POs
  shaped(2, 65, {5, 2, 7, 0});                               // stray bit above wave 64
  shaped(1, 1, {std::uint64_t{1} << 63});                    // stray bit at the top
  for (std::size_t k = 0; k < hostile.size(); ++k) {
    const auto bad = response_frame(hostile[k]);
    EXPECT_THROW((void)net::decode_response_body(bad.data() + 4, bad.size() - 4),
                 net::protocol_error)
        << "hostile response " << k;
  }

  // The client reads each rejected frame whole, so the next frame still
  // decodes: a well-formed response after the hostile ones comes through.
  // The fake server thread owns its listener; the client only needs the port.
  auto listener = net::tcp_listener::listen_loopback(0);
  const std::uint16_t port = listener.port();
  std::thread fake_server{[&hostile, &frame, listener = std::move(listener)]() mutable {
    try {
      auto sock = listener.accept();
      std::uint8_t preamble[8];
      if (!sock.read_exact(preamble, sizeof preamble)) {
        return;
      }
      sock.write_all(preamble, sizeof preamble);  // the handshake echo
      for (const auto& resp : hostile) {
        const auto bad = response_frame(resp);
        sock.write_all(bad.data(), bad.size());
      }
      sock.write_all(frame.data(), frame.size());
    } catch (const net::socket_error&) {
      // The client hung up early; its assertions below say why.
    }
  }};
  try {
    auto client = net::wire_client::connect(port);
    for (std::size_t k = 0; k < hostile.size(); ++k) {
      EXPECT_THROW((void)client.receive(), net::protocol_error) << "hostile response " << k;
    }
    const auto good = client.receive();
    EXPECT_EQ(good.id, ok.id);
    EXPECT_EQ(good.result.words, ok.result.words);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "client: " << e.what();
  }
  fake_server.join();
}

// ------------------------------------------------------ client retries ---

// A response the client refuses (its words disagree with its shape) ends
// that run without a retry, and the request is no longer tracked: the next
// run's reconnect re-sends only its own request, and no late answer to the
// refused one is stashed.
TEST(wire_client, a_refused_response_is_not_replayed_by_the_next_reconnect) {
  constexpr std::uint64_t refused_id = 101;
  constexpr std::uint64_t next_id = 102;
  const auto run = [](std::uint64_t id) {
    net::run_request req;
    req.id = id;
    req.phases = 3;
    req.num_pis = 1;
    req.fingerprint = 7;
    req.num_waves = 64;
    req.payload = {id};
    return req;
  };
  const auto answer = [](net::tcp_socket& sock, std::uint64_t id, std::vector<std::uint64_t> words) {
    net::wire_response resp;
    resp.id = id;
    resp.status = net::wire_status::ok;
    resp.result.num_pos = 1;
    resp.result.num_waves = 64;
    resp.result.words = std::move(words);
    const auto frame = response_frame(resp);
    sock.write_all(frame.data(), frame.size());
  };

  auto listener = net::tcp_listener::listen_loopback(0);
  const std::uint16_t port = listener.port();
  std::vector<std::uint64_t> answered;  // ids read on the second connection
  std::thread fake_server{[&, listener = std::move(listener)]() mutable {
    try {
      {
        // First connection: one response with no words for one plane of
        // 64 waves, which check_result_shape refuses; then hang up.
        auto sock = listener.accept();
        if (!net::read_preamble(sock)) {
          return;
        }
        net::write_preamble(sock);
        const auto req = std::get<net::run_request>(net::read_request_frame(sock, 1u << 20));
        answer(sock, req.id, {});
      }
      // Second connection (the reconnect): answer every request read, until
      // the second run's, then hang up.
      auto sock = listener.accept();
      if (!net::read_preamble(sock)) {
        return;
      }
      net::write_preamble(sock);
      for (;;) {
        const auto req = std::get<net::run_request>(net::read_request_frame(sock, 1u << 20));
        answered.push_back(req.id);
        answer(sock, req.id, {req.id});
        if (req.id == next_id) {
          break;
        }
      }
    } catch (const std::exception&) {
      // The client hung up early; its assertions below say why.
    }
  }};
  try {
    auto client = net::wire_client::connect(port);
    net::retry_policy policy;
    policy.max_attempts = 3;
    policy.base_backoff = std::chrono::milliseconds{1};
    policy.try_timeout = std::chrono::milliseconds{5000};
    client.set_retry_policy(policy);

    EXPECT_THROW((void)client.run(run(refused_id)), net::protocol_error);
    const auto resp = client.run(run(next_id));
    EXPECT_EQ(resp.id, next_id);
    EXPECT_EQ(resp.result.words, std::vector<std::uint64_t>{next_id});
    EXPECT_EQ(client.stats().reconnects, 1u);
    EXPECT_EQ(client.stats().resends, 1u);
    // The stash is empty: receive() goes to the socket, which the fake
    // server closed after its last answer.
    EXPECT_THROW((void)client.receive(), net::socket_error);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "client: " << e.what();
  }
  fake_server.join();
  EXPECT_EQ(answered, std::vector<std::uint64_t>{next_id});
}

// ------------------------------------------------- the differential pin ---

/// The acceptance pin: responses served over loopback are bit-identical to
/// in-process submit_packed — same words, same clock metrics — at the chunk
/// boundary wave counts, per program, per scenario (untagged + two named).
TEST(wire_differential, loopback_matches_in_process_submit_packed) {
  loopback_stack stack{2, 2};
  auto client = net::wire_client::connect(stack.server.port());

  const auto adder = std::make_shared<const mig_network>(gen::ripple_adder_circuit(5));
  const auto random = std::make_shared<const mig_network>(
      gen::random_mig({12, 120, 0.5, 6, 2026}));
  const std::vector<std::pair<std::shared_ptr<const mig_network>, std::uint64_t>> programs = {
      {adder, client.register_program(*adder)},
      {random, client.register_program(*random)},
  };
  const std::vector<std::string> scenarios = {"", "SWD", "QCA"};
  const std::size_t wave_counts[] = {1, 63, 64, 65, 511};

  std::uint64_t seed = 1;
  for (const auto& [net, fingerprint] : programs) {
    for (const auto& scenario : scenarios) {
      for (const std::size_t waves : wave_counts) {
        const auto words = random_planes(net->num_pis(), waves, seed++);

        auto req = make_run(fingerprint, *net, waves, 3, words);
        req.scenario = scenario;
        const auto resp = client.run(std::move(req));
        ASSERT_EQ(resp.status, net::wire_status::ok)
            << net::to_string(resp.status) << ": " << resp.message;

        engine::submit_options opts;
        if (!scenario.empty()) {
          opts.scenario =
              std::make_shared<const tech_scenario>(tech_scenario::by_name(scenario));
        }
        const auto want =
            stack.serving.submit_packed(net, words, waves, 3, std::move(opts)).get();
        EXPECT_EQ(resp.result.words, want.words)
            << "waves=" << waves << " scenario=" << scenario;
        EXPECT_EQ(resp.result.num_waves, want.num_waves);
        EXPECT_EQ(resp.result.num_pos, want.num_pos);
        EXPECT_EQ(resp.result.ticks, want.ticks);
        EXPECT_EQ(resp.result.latency_ticks, want.latency_ticks);
        EXPECT_EQ(resp.result.initiation_interval, want.initiation_interval);
        EXPECT_EQ(resp.result.waves_in_flight, want.waves_in_flight);
        EXPECT_EQ(resp.fingerprint, fingerprint);
      }
    }
  }
  EXPECT_EQ(stack.server.stats().requests_refused, 0u);
}

/// Pipelined multi-client traffic: several clients each stream interleaved
/// requests over two programs; responses are matched by id and must still be
/// bit-identical to the in-process reference. TSan food for the
/// reader/writer/worker handoff.
TEST(wire_differential, concurrent_clients_pipeline_without_cross_talk) {
  loopback_stack stack{4, 2};

  const auto adder = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const auto parity = std::make_shared<const mig_network>(
      gen::random_mig({9, 60, 0.5, 4, 7}));

  constexpr int clients = 4;
  constexpr int per_client = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        auto client = net::wire_client::connect(stack.server.port());
        const std::uint64_t adder_fp = client.register_program(*adder);
        const std::uint64_t parity_fp = client.register_program(*parity);
        std::vector<std::uint64_t> ids;
        std::vector<std::vector<std::uint64_t>> payloads;
        std::vector<std::shared_ptr<const mig_network>> nets;
        std::vector<std::size_t> counts;
        for (int i = 0; i < per_client; ++i) {
          const auto& net = (i % 2 == 0) ? adder : parity;
          const std::size_t waves = 30 + 17 * static_cast<std::size_t>(i);
          const auto words =
              random_planes(net->num_pis(), waves,
                            static_cast<std::uint64_t>(c) * 100 + static_cast<std::uint64_t>(i));
          auto req = make_run((i % 2 == 0) ? adder_fp : parity_fp, *net, waves, 3, words);
          ids.push_back(client.send(std::move(req)));
          payloads.push_back(words);
          nets.push_back(net);
          counts.push_back(waves);
        }
        // Drain the pipelined responses (completion order, matched by id)
        // and hold each against the in-process reference.
        for (int drained = 0; drained < per_client; ++drained) {
          const auto resp = client.receive();
          if (resp.status != net::wire_status::ok) {
            failures[c] = resp.message;
            return;
          }
          int i = -1;
          for (int k = 0; k < per_client; ++k) {
            if (ids[k] == resp.id) {
              i = k;
              break;
            }
          }
          if (i < 0) {
            failures[c] = "response id matches no request";
            return;
          }
          const auto want =
              stack.serving.submit_packed(nets[i], payloads[i], counts[i], 3).get();
          if (resp.result.words != want.words) {
            failures[c] = "result words diverge from the in-process reference";
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int c = 0; c < clients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }
}

// ----------------------------------------------------- program registry ---

TEST(wire_registry, register_echoes_the_structural_fingerprint) {
  loopback_stack stack;
  auto client = net::wire_client::connect(stack.server.port());

  const auto net = gen::ripple_adder_circuit(6);
  const std::uint64_t fp = client.register_program(net);
  EXPECT_EQ(fp, engine::network_fingerprint(net));
  EXPECT_EQ(stack.server.num_programs(), 1u);

  // Re-registration is idempotent: same fingerprint, no second entry.
  EXPECT_EQ(client.register_program(net), fp);
  EXPECT_EQ(stack.server.num_programs(), 1u);
  EXPECT_EQ(stack.server.stats().programs_registered, 1u);

  EXPECT_THROW((void)client.register_netlist("x = WAT(a, b, c)\n"), net::wire_error);
}

TEST(wire_registry, any_writable_network_registers_and_the_rest_fail_locally) {
  loopback_stack stack;
  auto client = net::wire_client::connect(stack.server.port());

  // An input named like a gate ("n4", node 4 being a gate) must not reach
  // the server as a redefinition, which it would refuse as malformed.
  mig_network net;
  const signal a = net.create_pi("n4");
  const signal b = net.create_pi("b");
  const signal c = net.create_pi("c");
  net.create_po(net.create_maj(net.create_maj(a, b, c), a, !b), "f");
  EXPECT_EQ(client.register_program(net), engine::network_fingerprint(net));

  // A name the text cannot carry is refused before anything is sent.
  mig_network spaced;
  spaced.create_po(spaced.create_pi("x y"), "f");
  EXPECT_THROW((void)client.register_program(spaced), std::invalid_argument);
  EXPECT_EQ(stack.server.num_programs(), 1u);
}

TEST(wire_registry, inline_netlists_register_and_echo_their_fingerprint) {
  loopback_stack stack;
  auto client = net::wire_client::connect(stack.server.port());

  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(3));
  const std::size_t waves = 70;
  const auto words = random_planes(net->num_pis(), waves, 31);

  auto req = make_run(0, *net, waves, 3, words);
  req.netlist = mig_text(*net);
  const auto resp = client.run(std::move(req));
  ASSERT_EQ(resp.status, net::wire_status::ok) << resp.message;
  EXPECT_EQ(resp.fingerprint, engine::network_fingerprint(*net));
  EXPECT_EQ(stack.server.num_programs(), 1u);

  // The echoed fingerprint works for 8-byte-header runs from then on.
  const auto by_fp = client.run(make_run(resp.fingerprint, *net, waves, 3, words));
  ASSERT_EQ(by_fp.status, net::wire_status::ok) << by_fp.message;
  EXPECT_EQ(by_fp.result.words, resp.result.words);

  const auto unknown = client.run(make_run(0xDEAD'BEEFu, *net, waves, 3, words));
  EXPECT_EQ(unknown.status, net::wire_status::unknown_program);
  EXPECT_FALSE(unknown.message.empty());
}

// ----------------------------------------------- request-level refusals ---

TEST(wire_refusals, bad_requests_map_to_exact_statuses) {
  loopback_stack stack;
  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::uint64_t fp = client.register_program(*net);

  // Unknown scenario name.
  auto bad_scenario = make_run(fp, *net, 64, 3, random_planes(net->num_pis(), 64, 1));
  bad_scenario.scenario = "warp-drive";
  EXPECT_EQ(client.run(std::move(bad_scenario)).status, net::wire_status::unknown_scenario);

  // Zero waves: decodes fine, rejected on the dispatcher.
  EXPECT_EQ(client.run(make_run(fp, *net, 0, 3, {})).status,
            net::wire_status::invalid_request);

  // Zero phases: refused before the program cache is touched, so a client
  // cannot make the server compile (or evict) anything with it.
  const auto misses_before = stack.serving.stats().misses;
  EXPECT_EQ(client.run(make_run(fp, *net, 64, 0, random_planes(net->num_pis(), 64, 3))).status,
            net::wire_status::invalid_request);
  EXPECT_EQ(stack.serving.stats().misses, misses_before);

  // Word count inconsistent with the declared wave count.
  EXPECT_EQ(client.run(make_run(fp, *net, 64, 3, std::vector<std::uint64_t>(3, 0))).status,
            net::wire_status::invalid_request);

  // PI-plane count inconsistent with the program.
  EXPECT_EQ(client
                .run(make_run(fp, *net, 64, 3,
                              std::vector<std::uint64_t>(net->num_pis() + 1, 0)))
                .status,
            net::wire_status::invalid_request);

  // A header declaring one PI more than the program, over a payload that
  // holds the program's own planes: refused before submission, not served
  // under the program's shape.
  const auto accepted_before = stack.serving.metrics().requests_accepted;
  auto wrong_pis = make_run(fp, *net, 64, 3, random_planes(net->num_pis(), 64, 4));
  wrong_pis.num_pis = static_cast<std::uint32_t>(net->num_pis() + 1);
  const auto wrong_pis_resp = client.run(std::move(wrong_pis));
  EXPECT_EQ(wrong_pis_resp.status, net::wire_status::invalid_request);
  EXPECT_NE(wrong_pis_resp.message.find("primary inputs"), std::string::npos)
      << wrong_pis_resp.message;
  EXPECT_EQ(stack.serving.metrics().requests_accepted, accepted_before);

  // The connection survives every refusal: a healthy request still runs.
  EXPECT_EQ(client.run(make_run(fp, *net, 64, 3, random_planes(net->num_pis(), 64, 2))).status,
            net::wire_status::ok);
  EXPECT_GE(stack.server.stats().requests_refused, 6u);
}

TEST(wire_refusals, stray_tail_bits_reject_unless_masking_is_requested) {
  loopback_stack stack;
  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::uint64_t fp = client.register_program(*net);

  const std::size_t waves = 70;  // 6 stray bit positions in the last chunk
  auto words = random_planes(net->num_pis(), waves, 5);
  const auto clean = words;
  words[1] |= ~((std::uint64_t{1} << (waves % 64)) - 1);  // garbage above wave 69

  // Strict default: untrusted payloads with stray bits are rejected.
  const auto rejected = client.run(make_run(fp, *net, waves, 3, words));
  EXPECT_EQ(rejected.status, net::wire_status::invalid_request);
  EXPECT_NE(rejected.message.find("stray bits"), std::string::npos) << rejected.message;

  // Opting into masking reproduces the trusted in-process default.
  auto masked = make_run(fp, *net, waves, 3, words);
  masked.flags = net::run_flag_mask_tail_bits;
  const auto resp = client.run(std::move(masked));
  ASSERT_EQ(resp.status, net::wire_status::ok) << resp.message;
  const auto want = stack.serving.submit_packed(net, clean, waves, 3).get();
  EXPECT_EQ(resp.result.words, want.words);
}

// ------------------------------------------------------- hostile framing ---

/// Raw-socket helpers for speaking deliberately broken bytes at the server.
net::tcp_socket raw_handshake(std::uint16_t port) {
  auto sock = net::tcp_socket::connect("127.0.0.1", port);
  net::write_preamble(sock);
  EXPECT_TRUE(net::read_preamble(sock));
  return sock;
}

net::wire_response read_raw_response(net::tcp_socket& sock) { return net::read_response(sock); }

void write_frame(net::tcp_socket& sock, const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> len;
  net::byte_writer w{len};
  w.u32(static_cast<std::uint32_t>(body.size()));
  sock.write_all(len.data(), len.size());
  sock.write_all(body.data(), body.size());
}

TEST(wire_framing, handshake_mismatch_closes_the_connection) {
  loopback_stack stack;
  auto sock = net::tcp_socket::connect("127.0.0.1", stack.server.port());
  std::vector<std::uint8_t> preamble;
  net::byte_writer w{preamble};
  w.u32(0xBADC0DEu);
  w.u32(net::wire_version);
  sock.write_all(preamble.data(), preamble.size());
  std::uint8_t byte = 0;
  EXPECT_FALSE(sock.read_exact(&byte, 1));  // no echo, just EOF
}

TEST(wire_framing, unknown_kinds_and_short_frames_are_answered_and_survivable) {
  loopback_stack stack;
  auto sock = raw_handshake(stack.server.port());

  // Unknown frame kind: refused, stream stays synchronized.
  write_frame(sock, {0x77, 1, 2, 3});
  EXPECT_EQ(read_raw_response(sock).status, net::wire_status::malformed_frame);

  // Run frame shorter than its fixed header.
  write_frame(sock, {static_cast<std::uint8_t>(net::frame_kind::run), 1, 2, 3});
  EXPECT_EQ(read_raw_response(sock).status, net::wire_status::malformed_frame);

  // Register frame shorter than its fixed header.
  write_frame(sock, {static_cast<std::uint8_t>(net::frame_kind::register_program), 9});
  EXPECT_EQ(read_raw_response(sock).status, net::wire_status::malformed_frame);

  // Run frame whose variable lengths disagree with the body length.
  {
    net::run_request req;
    req.id = 5;
    req.num_waves = 64;
    req.num_pis = 4;
    req.netlist = "ignored";
    auto prefix = net::encode_run_frame_prefix(req);
    // Rewrite the length word to drop the netlist bytes the header promises.
    std::vector<std::uint8_t> patched;
    net::byte_writer w{patched};
    w.u32(static_cast<std::uint32_t>(net::run_fixed_bytes));
    std::copy(prefix.begin() + 4, prefix.begin() + 4 + static_cast<long>(net::run_fixed_bytes),
              std::back_inserter(patched));
    sock.write_all(patched.data(), patched.size());
    EXPECT_EQ(read_raw_response(sock).status, net::wire_status::malformed_frame);
  }

  // A payload that is not a whole number of 64-bit words.
  {
    std::vector<std::uint8_t> body(net::run_fixed_bytes + 3, 0);
    body[0] = static_cast<std::uint8_t>(net::frame_kind::run);
    write_frame(sock, body);
    EXPECT_EQ(read_raw_response(sock).status, net::wire_status::malformed_frame);
  }

  // After all that abuse, a well-formed register frame still succeeds.
  net::register_request reg;
  reg.id = 1234;
  reg.netlist = mig_text(gen::ripple_adder_circuit(2));
  const auto frame = net::encode_register_frame(reg);
  sock.write_all(frame.data(), frame.size());
  const auto resp = read_raw_response(sock);
  EXPECT_EQ(resp.status, net::wire_status::ok);
  EXPECT_EQ(resp.id, reg.id);
  EXPECT_EQ(stack.server.stats().requests_refused, 5u);
}

TEST(wire_framing, oversized_length_prefix_is_refused_and_closes) {
  net::server_options options;
  options.max_frame_bytes = 4096;
  loopback_stack stack{2, 1, options};
  auto sock = raw_handshake(stack.server.port());

  std::vector<std::uint8_t> len;
  net::byte_writer w{len};
  w.u32(std::uint32_t{1} << 30);  // a length we refuse to read past
  sock.write_all(len.data(), len.size());
  EXPECT_EQ(read_raw_response(sock).status, net::wire_status::malformed_frame);
  std::uint8_t byte = 0;
  EXPECT_FALSE(sock.read_exact(&byte, 1));  // connection closed behind it

  // A zero length prefix is equally unrecoverable.
  auto sock2 = raw_handshake(stack.server.port());
  std::vector<std::uint8_t> zero;
  net::byte_writer w2{zero};
  w2.u32(0);
  sock2.write_all(zero.data(), zero.size());
  EXPECT_EQ(read_raw_response(sock2).status, net::wire_status::malformed_frame);
  EXPECT_FALSE(sock2.read_exact(&byte, 1));
}

TEST(wire_framing, truncated_frames_drop_the_connection_but_not_the_server) {
  loopback_stack stack;
  {
    auto sock = raw_handshake(stack.server.port());
    // Promise 100 body bytes, deliver 10, and hang up mid-frame.
    std::vector<std::uint8_t> partial;
    net::byte_writer w{partial};
    w.u32(100);
    partial.resize(partial.size() + 10,
                   static_cast<std::uint8_t>(net::frame_kind::run));
    sock.write_all(partial.data(), partial.size());
    sock.shutdown_both();
    std::uint8_t byte = 0;
    EXPECT_FALSE(sock.read_exact(&byte, 1));  // nothing to answer, clean EOF
  }

  // The server sheds the broken connection and keeps serving new ones.
  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(3));
  const std::uint64_t fp = client.register_program(*net);
  const auto words = random_planes(net->num_pis(), 64, 77);
  EXPECT_EQ(client.run(make_run(fp, *net, 64, 3, words)).status, net::wire_status::ok);
  EXPECT_EQ(stack.server.stats().connections_accepted, 2u);
}

// -------------------------------------------------- production policies ---

TEST(wire_policies, admission_bound_rejects_with_the_exact_status) {
  loopback_stack stack{1, 1};
  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::uint64_t fp = client.register_program(*net);

  // Warm the compiled program, then park the lone worker so a submitted
  // request stays pending for as long as we need.
  const auto warm = random_planes(net->num_pis(), 64, 1);
  ASSERT_EQ(client.run(make_run(fp, *net, 64, 3, warm)).status, net::wire_status::ok);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  stack.executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });

  auto held = stack.serving.submit_packed(net, warm, 64, 3);
  stack.serving.set_admission_limit(1);  // backlog is already 1

  const auto resp = client.run(make_run(fp, *net, 64, 3, warm));
  EXPECT_EQ(resp.status, net::wire_status::admission_rejected);
  EXPECT_NE(resp.message.find("admission rejected"), std::string::npos) << resp.message;
  EXPECT_EQ(stack.serving.metrics().requests_rejected, 1u);

  // Lifting the bound restores service; the held request still completes.
  stack.serving.set_admission_limit(0);
  release.set_value();
  EXPECT_EQ(held.get().num_waves, 64u);
  EXPECT_EQ(client.run(make_run(fp, *net, 64, 3, warm)).status, net::wire_status::ok);
}

TEST(wire_policies, deadlines_expire_in_the_queue_with_the_exact_status) {
  loopback_stack stack{1, 1};
  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::uint64_t fp = client.register_program(*net);
  const auto warm = random_planes(net->num_pis(), 64, 1);
  ASSERT_EQ(client.run(make_run(fp, *net, 64, 3, warm)).status, net::wire_status::ok);

  // Park the worker, then wedge the lone dispatcher: big singleton requests
  // (too wide to coalesce) fill the in-flight cap (4 with one worker) and
  // the fifth blocks the dispatcher in launch_unit. Submitting one at a
  // time and waiting for its gulp keeps the accounting deterministic.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  stack.executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });
  const std::uint64_t gulps_before = stack.serving.metrics().gulps;
  std::vector<std::future<engine::packed_wave_result>> blockers;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    blockers.push_back(
        stack.serving.submit_packed(net, random_planes(net->num_pis(), 520, i), 520, 3));
    while (stack.serving.metrics().gulps < gulps_before + i) {
      std::this_thread::yield();
    }
  }

  // This request sits in the queue past its deadline; the dispatcher must
  // fail it at pickup instead of executing it.
  auto doomed = make_run(fp, *net, 64, 3, warm);
  doomed.deadline_ms = 5;
  const std::uint64_t id = client.send(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  release.set_value();

  const auto resp = client.receive();
  EXPECT_EQ(resp.id, id);
  EXPECT_EQ(resp.status, net::wire_status::deadline_expired);
  for (auto& blocker : blockers) {
    EXPECT_EQ(blocker.get().num_waves, 520u);
  }
  EXPECT_EQ(stack.serving.metrics().requests_expired, 1u);
}

TEST(wire_policies, draining_refuses_new_work_while_accepted_work_flushes) {
  loopback_stack stack{1, 1};
  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::uint64_t fp = client.register_program(*net);
  const auto words = random_planes(net->num_pis(), 64, 9);
  const auto want = client.run(make_run(fp, *net, 64, 3, words));
  ASSERT_EQ(want.status, net::wire_status::ok);
  // The warm response can arrive before the session retires its request, so
  // quiesce first — the pending() wait below must observe the next request,
  // not this one's tail.
  stack.serving.drain();

  // Park the worker and submit a request that will still be in flight when
  // the drain begins: its response must flow, the next request must not.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  stack.executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });
  const std::uint64_t accepted_id = client.send(make_run(fp, *net, 64, 3, words));
  while (stack.serving.pending() == 0) {
    std::this_thread::yield();  // accepted before the drain begins, not raced
  }

  stack.server.begin_drain();
  const auto refused = client.run(make_run(fp, *net, 64, 3, words));
  EXPECT_EQ(refused.status, net::wire_status::draining);
  EXPECT_EQ(refused.message, "server is draining");
  EXPECT_THROW((void)client.register_program(*net), net::wire_error);

  release.set_value();
  const auto accepted = client.receive();
  EXPECT_EQ(accepted.id, accepted_id);
  ASSERT_EQ(accepted.status, net::wire_status::ok);
  EXPECT_EQ(accepted.result.words, want.result.words);
}

TEST(wire_policies, shutdown_flushes_inflight_responses_before_closing) {
  auto stack = std::make_unique<loopback_stack>(1u, 1u);
  auto client = net::wire_client::connect(stack->server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::uint64_t fp = client.register_program(*net);
  const auto words = random_planes(net->num_pis(), 64, 13);
  const auto want = client.run(make_run(fp, *net, 64, 3, words));
  ASSERT_EQ(want.status, net::wire_status::ok);
  stack->serving.drain();  // see the draining test: quiesce the warm tail

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  stack->executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });
  const std::uint64_t id = client.send(make_run(fp, *net, 64, 3, words));
  while (stack->serving.pending() == 0) {
    std::this_thread::yield();  // the request must be accepted pre-shutdown
  }

  std::thread closer{[&] { stack->server.shutdown(); }};
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  release.set_value();
  closer.join();

  // The accepted request's response was flushed before the teardown...
  const auto resp = client.receive();
  EXPECT_EQ(resp.id, id);
  ASSERT_EQ(resp.status, net::wire_status::ok);
  EXPECT_EQ(resp.result.words, want.result.words);
  // ...and the connection ends cleanly right after it.
  EXPECT_THROW((void)client.receive(), net::socket_error);
  EXPECT_THROW((void)net::wire_client::connect(stack->server.port()), net::socket_error);
}

// -------------------------------------------------- connection lifetime ---

std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator{"/proc/self/fd"}) {
    ++n;
  }
  return n;
}

/// A connection whose client hangs up releases its fd when its reader
/// exits, not at shutdown(): 256 connect/close cycles leave the process's
/// fd count where it was, and the server keeps serving.
TEST(wire_connections, closed_connections_release_their_fds) {
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "needs /proc/self/fd to count open descriptors";
  }
  loopback_stack stack;
  const std::size_t before = open_fds();
  for (int i = 0; i < 256; ++i) {
    auto client = net::wire_client::connect(stack.server.port());
    client.close();
  }
  // Each reader sees its client's EOF and closes asynchronously.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{5};
  std::size_t after = open_fds();
  while (after > before + 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    after = open_fds();
  }
  EXPECT_LE(after, before + 4) << "open fds: " << before << " before 256 connect/close cycles, "
                               << after << " after";

  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(3));
  const std::uint64_t fp = client.register_program(*net);
  const auto words = random_planes(net->num_pis(), 100, 17);
  const auto resp = client.run(make_run(fp, *net, 100, 3, words));
  ASSERT_EQ(resp.status, net::wire_status::ok) << resp.message;
  EXPECT_EQ(resp.result.words, stack.serving.submit_packed(net, words, 100, 3).get().words);
  EXPECT_EQ(stack.server.stats().connections_accepted, 257u);
}

// ------------------------------------------------------------ wire fuzz ---

/// A length field of a frame body: byte offset (the kind byte is 0) and width.
struct length_field {
  std::size_t offset;
  std::size_t width;
};

/// Scenario, netlist, num_pis and num_waves of a run body.
const std::vector<length_field> run_lengths = {{11, 2}, {25, 4}, {21, 4}, {37, 8}};
const std::vector<length_field> register_lengths = {{9, 4}};
/// Message length of an error response; num_waves and num_pos of an ok one.
const std::vector<length_field> response_lengths = {{10, 4}, {18, 8}, {26, 4}};

/// One seeded mutation: one to three edits, each a bit flip, a truncation,
/// an extension by random bytes, or a length field rewritten (a step of at
/// most 8 or a random value, little-endian like the wire).
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> body,
                                 const std::vector<length_field>& lengths, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  for (std::size_t edits = 1 + pick(3); edits > 0; --edits) {
    switch (pick(4)) {
      case 0:
        if (!body.empty()) {
          body[pick(body.size())] ^= static_cast<std::uint8_t>(1u << pick(8));
        }
        break;
      case 1:
        body.resize(pick(body.size() + 1));
        break;
      case 2:
        for (std::size_t n = 1 + pick(16); n > 0; --n) {
          body.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
      default: {
        const length_field f = lengths[pick(lengths.size())];
        if (f.offset + f.width > body.size()) {
          break;
        }
        std::uint64_t v = 0;
        for (std::size_t b = 0; b < f.width; ++b) {
          v |= std::uint64_t{body[f.offset + b]} << (8 * b);
        }
        v = pick(2) == 0 ? v + pick(17) - 8 : rng();
        for (std::size_t b = 0; b < f.width; ++b) {
          body[f.offset + b] = static_cast<std::uint8_t>(v >> (8 * b));
        }
      }
    }
  }
  return body;
}

std::vector<std::uint8_t> body_of(const std::vector<std::uint8_t>& frame) {
  return {frame.begin() + 4, frame.end()};
}

std::vector<std::uint8_t> run_body(const net::run_request& req) {
  auto body = body_of(net::encode_run_frame_prefix(req));
  const auto* words = reinterpret_cast<const std::uint8_t*>(req.payload.data());
  body.insert(body.end(), words, words + req.payload.size() * sizeof(std::uint64_t));
  return body;
}

/// Writes `body` behind its own length prefix on one end of a fresh
/// loopback connection, closes that end, and returns the other.
net::tcp_socket framed_on_a_socket(net::tcp_listener& listener,
                                   const std::vector<std::uint8_t>& body) {
  auto reader = net::tcp_socket::connect("127.0.0.1", listener.port());
  auto writer = listener.accept();
  std::vector<std::uint8_t> frame;
  net::byte_writer w{frame};
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.bytes(body.data(), body.size());
  writer.write_all(frame.data(), frame.size());
  return reader;
}

/// 2,000 seeded mutations of `seeds` through a decoder's span form
/// (`span`) and, every tenth, its socket form (`socket`): each returns the
/// re-encoded body of what it accepted. Only protocol_error may escape,
/// both forms must agree, and an accepted body re-encodes to itself.
template <typename Span, typename Socket>
void fuzz_decoder(const char* kind, const std::vector<std::vector<std::uint8_t>>& seeds,
                  const std::vector<length_field>& lengths, std::uint64_t seed, Span span,
                  Socket socket) {
  auto listener = net::tcp_listener::listen_loopback(0);
  std::mt19937_64 rng{seed};
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (std::size_t trial = 0; trial < 2000; ++trial) {
    const auto body = mutate(seeds[trial % seeds.size()], lengths, rng);
    std::optional<std::vector<std::uint8_t>> span_out;
    try {
      span_out = span(body);
      EXPECT_EQ(*span_out, body) << kind << " trial " << trial << " re-encodes differently";
      ++accepted;
    } catch (const net::protocol_error&) {
      ++refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << kind << " trial " << trial << ": " << e.what();
    }
    if (trial % 10 != 0) {
      continue;
    }
    try {
      auto sock = framed_on_a_socket(listener, body);
      const auto socket_out = socket(sock);
      EXPECT_EQ(span_out, socket_out) << kind << " trial " << trial << ": the forms disagree";
    } catch (const net::protocol_error&) {
      EXPECT_FALSE(span_out) << kind << " trial " << trial << ": only the socket form refused";
    } catch (const std::exception& e) {
      ADD_FAILURE() << kind << " trial " << trial << " (socket form): " << e.what();
    }
  }
  // Both verdicts must occur, or the mutations test nothing.
  EXPECT_GT(accepted, 0u) << kind;
  EXPECT_GT(refused, 0u) << kind;
}

net::run_request fuzz_run(std::uint64_t id, std::string scenario, std::string netlist,
                          std::vector<std::uint64_t> payload) {
  net::run_request req;
  req.id = id;
  req.priority = 7;
  req.deadline_ms = 1000;
  req.phases = 3;
  req.num_pis = 4;
  req.fingerprint = 0x0123456789ABCDEFull;
  req.num_waves = 64 * payload.size() / 4;
  req.scenario = std::move(scenario);
  req.netlist = std::move(netlist);
  req.payload = std::move(payload);
  return req;
}

TEST(wire_fuzz, run_decoder_refuses_or_round_trips_every_mutation) {
  const std::vector<std::vector<std::uint8_t>> seeds = {
      run_body(fuzz_run(1, "", "", random_planes(4, 128, 1))),
      run_body(fuzz_run(2, "SWD", mig_text(gen::ripple_adder_circuit(2)), {})),
      run_body(fuzz_run(3, "FDM-SWD", "", random_planes(4, 64, 2))),
  };
  fuzz_decoder(
      "run", seeds, run_lengths, 0xF0221,
      [](const std::vector<std::uint8_t>& body) {
        net::run_request out;
        const std::size_t at = net::decode_run_body(body.data(), body.size(), out);
        EXPECT_EQ(body.size() - at, out.payload.size() * sizeof(std::uint64_t));
        return run_body(out);
      },
      [](net::tcp_socket& sock) -> std::optional<std::vector<std::uint8_t>> {
        // A flipped kind byte can make a valid register frame: no run frame.
        auto frame = net::read_request_frame(sock, std::size_t{1} << 20);
        const auto* run = std::get_if<net::run_request>(&frame);
        return run != nullptr ? std::optional{run_body(*run)} : std::nullopt;
      });
}

TEST(wire_fuzz, register_decoder_refuses_or_round_trips_every_mutation) {
  std::vector<std::vector<std::uint8_t>> seeds;
  for (const auto& netlist : {std::string{}, mig_text(gen::ripple_adder_circuit(2))}) {
    net::register_request req;
    req.id = 40 + seeds.size();
    req.netlist = netlist;
    seeds.push_back(body_of(net::encode_register_frame(req)));
  }
  fuzz_decoder(
      "register", seeds, register_lengths, 0xF0222,
      [](const std::vector<std::uint8_t>& body) {
        return body_of(net::encode_register_frame(net::decode_register_body(body.data(), body.size())));
      },
      [](net::tcp_socket& sock) -> std::optional<std::vector<std::uint8_t>> {
        auto frame = net::read_request_frame(sock, std::size_t{1} << 20);
        const auto* reg = std::get_if<net::register_request>(&frame);
        return reg != nullptr ? std::optional{body_of(net::encode_register_frame(*reg))}
                              : std::nullopt;
      });
}

TEST(wire_fuzz, response_decoder_refuses_or_round_trips_every_mutation) {
  net::wire_response ok;
  ok.id = 90;
  ok.fingerprint = 0xFEEDull;
  ok.result.num_pos = 3;
  ok.result.num_waves = 130;
  ok.result.words = random_planes(3, 130, 3);
  ok.result.ticks = 140;
  ok.result.latency_ticks = 9;
  ok.result.initiation_interval = 3;
  ok.result.waves_in_flight = 3;
  net::wire_response registered;
  registered.id = 91;
  registered.fingerprint = 0xBEEFull;
  registered.result.num_pos = 2;
  net::wire_response refused;
  refused.id = 92;
  refused.status = net::wire_status::unknown_scenario;
  refused.message = "scenario 'XYZ' is not registered";
  const std::vector<std::vector<std::uint8_t>> seeds = {
      body_of(response_frame(ok)), body_of(response_frame(registered)),
      body_of(response_frame(refused))};
  fuzz_decoder(
      "response", seeds, response_lengths, 0xF0223,
      [](const std::vector<std::uint8_t>& body) {
        return body_of(response_frame(net::decode_response_body(body.data(), body.size())));
      },
      [](net::tcp_socket& sock) -> std::optional<std::vector<std::uint8_t>> {
        return body_of(response_frame(net::read_response(sock)));
      });
}

/// Waits up to 10 s for a byte or an end of stream on `sock`.
bool readable(const net::tcp_socket& sock) {
  pollfd p{sock.fd(), POLLIN, 0};
  return ::poll(&p, 1, 10'000) == 1;
}

/// Mutated frames written to a live server: a frame under its own length
/// prefix gets exactly one response on a connection that stays in sync,
/// unless it is empty (refused, then closed); under a rewritten length
/// prefix the connection ends after responses that all decode. A fresh
/// client is then served.
TEST(wire_fuzz, a_live_server_answers_or_ends_every_mutated_frame) {
  loopback_stack stack;
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(2));
  const std::string text = mig_text(*net);
  std::uint64_t fp = 0;
  {
    auto client = net::wire_client::connect(stack.server.port());
    fp = client.register_program(*net);
  }
  auto by_fingerprint = make_run(fp, *net, 100, 3, random_planes(net->num_pis(), 100, 4));
  by_fingerprint.id = 1;
  auto inline_netlist = make_run(0, *net, 64, 3, random_planes(net->num_pis(), 64, 5));
  inline_netlist.id = 2;
  inline_netlist.netlist = text;
  inline_netlist.scenario = "SWD";
  net::register_request reg;
  reg.id = 3;
  reg.netlist = text;
  const std::vector<std::vector<std::uint8_t>> seeds = {
      run_body(by_fingerprint), run_body(inline_netlist),
      body_of(net::encode_register_frame(reg))};
  const std::vector<const std::vector<length_field>*> lengths = {&run_lengths, &run_lengths,
                                                                  &register_lengths};

  std::mt19937_64 rng{0xF0224};
  std::optional<net::tcp_socket> sock;
  std::size_t answered = 0;
  std::size_t reframed = 0;
  for (std::size_t trial = 0; trial < 300; ++trial) {
    const std::size_t k = trial % seeds.size();
    const auto body = mutate(seeds[k], *lengths[k], rng);
    const bool rewrite_length = rng() % 8 == 0;
    std::vector<std::uint8_t> frame;
    net::byte_writer w{frame};
    w.u32(static_cast<std::uint32_t>(rewrite_length ? rng() % (2 * body.size() + 2)
                                                     : body.size()));
    w.bytes(body.data(), body.size());
    if (!sock) {
      sock = raw_handshake(stack.server.port());
    }
    sock->write_all(frame.data(), frame.size());
    if (rewrite_length) {
      // The server may wait for bytes that never come, read a short frame
      // and the rest as more frames, or refuse the length: end our side.
      ::shutdown(sock->fd(), SHUT_WR);
      for (;;) {
        ASSERT_TRUE(readable(*sock)) << "trial " << trial << ": the connection never ended";
        try {
          (void)net::read_response(*sock);
        } catch (const net::socket_error&) {
          break;
        }
      }
      sock.reset();
      ++reframed;
      continue;
    }
    ASSERT_TRUE(readable(*sock)) << "trial " << trial << ": no response and no close";
    try {
      const auto resp = net::read_response(*sock);
      ++answered;
      if (body.empty()) {  // a zero length prefix: refused, then closed
        EXPECT_EQ(resp.status, net::wire_status::malformed_frame);
        ASSERT_TRUE(readable(*sock));
        EXPECT_THROW((void)net::read_response(*sock), net::socket_error);
        sock.reset();
      }
    } catch (const net::socket_error& e) {
      ADD_FAILURE() << "trial " << trial << ": the server closed instead of answering: "
                    << e.what();
      sock.reset();
    }
  }
  EXPECT_GT(answered, 200u);
  EXPECT_GT(reframed, 0u);

  auto client = net::wire_client::connect(stack.server.port());
  const auto words = random_planes(net->num_pis(), 100, 6);
  const auto resp = client.run(make_run(fp, *net, 100, 3, words));
  ASSERT_EQ(resp.status, net::wire_status::ok) << resp.message;
  EXPECT_EQ(resp.result.words, stack.serving.submit_packed(net, words, 100, 3).get().words);
}

}  // namespace
}  // namespace wavemig
