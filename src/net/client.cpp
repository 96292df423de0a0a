#include "wavemig/net/client.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <thread>

#include "wavemig/io/mig_format.hpp"

namespace wavemig::net {

namespace {

/// Responses are bounded by the result planes of one request, which the
/// request itself bounded; anything past this is a corrupt stream.
constexpr std::size_t max_response_bytes = std::size_t{1} << 30;

}  // namespace

tcp_socket wire_client::dial(const std::string& host, std::uint16_t port) {
  tcp_socket sock = tcp_socket::connect(host, port);
  std::vector<std::uint8_t> preamble;
  {
    byte_writer w{preamble};
    w.u32(wire_magic);
    w.u32(wire_version);
  }
  sock.write_all(preamble.data(), preamble.size());
  std::uint8_t echo[8];
  if (!sock.read_exact(echo, sizeof echo)) {
    throw socket_error{"wire: server closed during handshake"};
  }
  byte_reader r{echo, sizeof echo};
  if (r.u32() != wire_magic || r.u32() != wire_version) {
    throw protocol_error{"wire: server preamble mismatch"};
  }
  return sock;
}

wire_client wire_client::connect(std::uint16_t port, const std::string& host) {
  return wire_client{dial(host, port), host, port};
}

void wire_client::set_retry_policy(retry_policy policy) {
  policy_ = policy;
  if (sock_.valid()) {
    sock_.set_receive_timeout(policy_.try_timeout);
  }
}

void wire_client::reconnect() {
  sock_ = dial(host_, port_);
  if (policy_.try_timeout.count() > 0) {
    sock_.set_receive_timeout(policy_.try_timeout);
  }
  ++stats_.reconnects;
  // Replay every tracked request whose response never arrived. Runs are
  // pure functions of their payload, so the server executing a replay (even
  // when the original also executed, its response lost) is harmless — the
  // answer is bit-identical either way.
  for (const auto& [id, req] : unanswered_) {
    write_request(req);
    ++stats_.resends;
  }
}

void wire_client::write_request(const run_request& req) {
  const auto prefix = encode_run_frame_prefix(req);
  sock_.write_all(prefix.data(), prefix.size());
  if (req.payload.empty()) {
    return;
  }
  if constexpr (std::endian::native == std::endian::little) {
    // Wire order is native order: the tracked payload goes out as-is, no
    // copy, and stays intact for the next replay.
    sock_.write_all(req.payload.data(), req.payload.size() * sizeof(std::uint64_t));
  } else {
    std::vector<std::uint64_t> wire_words = req.payload;
    words_to_wire(wire_words.data(), wire_words.size());
    sock_.write_all(wire_words.data(), wire_words.size() * sizeof(std::uint64_t));
  }
}

std::uint64_t wire_client::register_netlist(const std::string& mig_text) {
  register_request req;
  req.id = next_id_++;
  req.netlist = mig_text;
  const auto frame = encode_register_frame(req);
  sock_.write_all(frame.data(), frame.size());
  wire_response resp = receive_matching(req.id);
  if (resp.status != wire_status::ok) {
    throw wire_error{resp.status, resp.message};
  }
  return resp.fingerprint;
}

std::uint64_t wire_client::register_program(const mig_network& net) {
  std::ostringstream os;
  io::write_mig(net, os);
  return register_netlist(os.str());
}

std::uint64_t wire_client::send(run_request req) {
  if (req.id == 0) {
    req.id = next_id_++;
  }
  const auto prefix = encode_run_frame_prefix(req);
  sock_.write_all(prefix.data(), prefix.size());
  if (!req.payload.empty()) {
    words_to_wire(req.payload.data(), req.payload.size());
    sock_.write_all(req.payload.data(), req.payload.size() * sizeof(std::uint64_t));
  }
  return req.id;
}

wire_response wire_client::receive() {
  if (!stashed_.empty()) {
    wire_response resp = std::move(stashed_.front());
    stashed_.pop_front();
    return resp;
  }
  return receive_from_socket();
}

wire_response wire_client::receive_matching(std::uint64_t id) {
  // The stash is checked once, up front. The read loop below must go to the
  // socket directly: popping the stash there would re-stash the same
  // non-matching response forever instead of making progress.
  for (auto it = stashed_.begin(); it != stashed_.end(); ++it) {
    if (it->id == id) {
      wire_response resp = std::move(*it);
      stashed_.erase(it);
      return resp;
    }
  }
  for (;;) {
    wire_response resp = receive_from_socket();
    if (resp.id == id) {
      return resp;
    }
    stashed_.push_back(std::move(resp));
  }
}

wire_response wire_client::receive_from_socket() {
  std::uint8_t len_bytes[4];
  if (!sock_.read_exact(len_bytes, sizeof len_bytes)) {
    throw socket_error{"wire: connection closed"};
  }
  byte_reader len_reader{len_bytes, sizeof len_bytes};
  const std::uint32_t body_len = len_reader.u32();
  if (body_len < response_fixed_bytes || body_len > max_response_bytes) {
    throw protocol_error{"wire: response length out of bounds"};
  }

  std::uint8_t fixed[response_fixed_bytes];
  if (!sock_.read_exact(fixed, sizeof fixed)) {
    throw socket_error{"wire: connection closed mid-response"};
  }
  byte_reader r{fixed, sizeof fixed};
  if (r.u8() != static_cast<std::uint8_t>(frame_kind::response)) {
    throw protocol_error{"wire: expected a response frame"};
  }
  wire_response resp;
  resp.id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(wire_status::watchdog_expired)) {
    throw protocol_error{"wire: unknown response status"};
  }
  resp.status = static_cast<wire_status>(status);
  const std::size_t rest = body_len - response_fixed_bytes;

  if (resp.status == wire_status::ok) {
    if (rest < response_ok_extra_bytes ||
        (rest - response_ok_extra_bytes) % sizeof(std::uint64_t) != 0) {
      throw protocol_error{"wire: ok response lengths disagree"};
    }
    std::uint8_t extra[response_ok_extra_bytes];
    if (!sock_.read_exact(extra, sizeof extra)) {
      throw socket_error{"wire: connection closed mid-response"};
    }
    byte_reader er{extra, sizeof extra};
    resp.fingerprint = er.u64();
    resp.result.num_waves = static_cast<std::size_t>(er.u64());
    resp.result.num_pos = er.u32();
    resp.result.ticks = er.u64();
    resp.result.latency_ticks = er.u32();
    resp.result.initiation_interval = er.u32();
    resp.result.waves_in_flight = er.u32();
    // Result planes land directly in the packed_wave_result's own vector —
    // the client-side half of the zero-copy story.
    const std::size_t words = (rest - response_ok_extra_bytes) / sizeof(std::uint64_t);
    resp.result.words.resize(words);
    if (words > 0 && !sock_.read_exact(resp.result.words.data(),
                                       words * sizeof(std::uint64_t))) {
      throw socket_error{"wire: connection closed mid-response"};
    }
    words_from_wire(resp.result.words.data(), words);
    check_result_shape(resp.result);
  } else {
    if (rest < 4) {
      throw protocol_error{"wire: error response lengths disagree"};
    }
    std::uint8_t msg_len_bytes[4];
    if (!sock_.read_exact(msg_len_bytes, sizeof msg_len_bytes)) {
      throw socket_error{"wire: connection closed mid-response"};
    }
    byte_reader mr{msg_len_bytes, sizeof msg_len_bytes};
    const std::uint32_t msg_len = mr.u32();
    if (msg_len != rest - 4) {
      throw protocol_error{"wire: error response lengths disagree"};
    }
    resp.message.resize(msg_len);
    if (msg_len > 0 && !sock_.read_exact(resp.message.data(), msg_len)) {
      throw socket_error{"wire: connection closed mid-response"};
    }
  }
  return resp;
}

wire_response wire_client::run(run_request req) {
  if (policy_.max_attempts <= 1) {
    // Non-retrying fast path: identical to the pre-policy client, payload
    // swapped to wire order in place — no tracking copy exists.
    const std::uint64_t id = send(std::move(req));
    return receive_matching(id);
  }

  if (req.id == 0) {
    req.id = next_id_++;
  }
  const std::uint64_t id = req.id;
  unanswered_.emplace(id, std::move(req));
  for (unsigned attempt = 1;; ++attempt) {
    try {
      if (!sock_.valid()) {
        reconnect();  // replays every unanswered request, this one included
      } else if (attempt == 1) {
        write_request(unanswered_.at(id));
      }
      wire_response resp = receive_matching(id);
      unanswered_.erase(id);
      return resp;
    } catch (const socket_error& e) {
      // The connection is unusable (reset, timed out mid-frame, or the
      // reconnect itself failed): discard it and back off before redialing.
      // Stashed responses were fully received and stay valid; the dead
      // stream's partial bytes died with the socket.
      sock_.close();
      if (attempt >= policy_.max_attempts) {
        unanswered_.erase(id);
        throw;
      }
      const unsigned shift = std::min(attempt - 1, 20u);
      const auto backoff = std::min<std::chrono::milliseconds::rep>(
          policy_.max_backoff.count(), policy_.base_backoff.count() << shift);
      if (backoff > 0) {
        std::uniform_real_distribution<double> jitter{0.5, 1.0};
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>{
            static_cast<double>(backoff) * jitter(jitter_)});
      }
    }
  }
}

}  // namespace wavemig::net
