#include "wavemig/net/client.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "wavemig/io/mig_format.hpp"

namespace wavemig::net {

tcp_socket wire_client::dial(const std::string& host, std::uint16_t port) {
  tcp_socket sock = tcp_socket::connect(host, port);
  write_preamble(sock);
  if (!read_preamble(sock)) {
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
  write_frame(sock_, encode_run_frame_prefix(req), req.payload);
}

std::uint64_t wire_client::register_netlist(const std::string& mig_text) {
  register_request req;
  req.id = next_id_++;
  req.netlist = mig_text;
  write_frame(sock_, encode_register_frame(req), {});
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
  write_request(req);
  return req.id;
}

wire_response wire_client::receive() {
  if (!stashed_.empty()) {
    wire_response resp = std::move(stashed_.front());
    stashed_.pop_front();
    return resp;
  }
  return read_response(sock_);
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
    wire_response resp = read_response(sock_);
    if (resp.id == id) {
      return resp;
    }
    stashed_.push_back(std::move(resp));
  }
}

wire_response wire_client::run(run_request req) {
  if (policy_.max_attempts <= 1) {
    // Non-retrying fast path: identical to the pre-policy client — no
    // tracking copy of the request exists.
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
    } catch (const socket_error&) {
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
    } catch (...) {
      // Anything else (a refused response, a preamble mismatch on
      // reconnect) ends this call without a retry: stop tracking the
      // request, or the next reconnect would replay it and stash its
      // answer forever.
      unanswered_.erase(id);
      throw;
    }
  }
}

}  // namespace wavemig::net
