#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <unordered_map>

#include "wavemig/mig.hpp"
#include "wavemig/net/protocol.hpp"
#include "wavemig/net/socket.hpp"

namespace wavemig::net {

/// A non-ok response surfaced as an exception by the conveniences that
/// hide the response object (`register_program`). `status()` carries the
/// wire status; what() carries the server's message.
class wire_error : public std::runtime_error {
public:
  wire_error(wire_status status, const std::string& message)
      : std::runtime_error{std::string{net::to_string(status)} + ": " + message},
        status_{status} {}
  [[nodiscard]] wire_status status() const { return status_; }

private:
  wire_status status_;
};

/// Client-side resilience policy (set_retry_policy). With `max_attempts`
/// above 1, `run` survives a dropped connection: on a socket error it
/// discards the dead connection, sleeps an exponentially growing jittered
/// backoff, reconnects (redoing the handshake), re-sends every not-yet-
/// answered tracked request, and waits again. Run requests are pure
/// functions of their payload, so a re-send is idempotent — the retried
/// response is bit-identical to what the lost one would have carried.
/// The default policy (one attempt) reproduces the non-retrying client
/// exactly, including its zero-copy send path.
struct retry_policy {
  /// Total tries per `run` call (first send included). 1 = no retries.
  unsigned max_attempts{1};
  /// Backoff before retry k (1-based) is `base_backoff << (k - 1)`, capped
  /// at `max_backoff`, then scaled by uniform jitter in [0.5, 1.0] so a
  /// fleet of clients doesn't reconnect in lockstep.
  std::chrono::milliseconds base_backoff{10};
  std::chrono::milliseconds max_backoff{1000};
  /// Per-try receive bound: a response read that makes no progress for this
  /// long counts as a failed try (the connection is discarded — a timed-out
  /// stream may sit mid-frame). Zero = wait forever.
  std::chrono::milliseconds try_timeout{0};
};

/// Monotonic counters of one client's resilience machinery.
struct client_stats {
  std::uint64_t reconnects{0};  ///< successful re-dials after a socket error
  std::uint64_t resends{0};     ///< tracked requests re-sent after reconnects
};

/// Client side of the wire protocol: connects, handshakes, and exchanges
/// frames. Not thread-safe — one client per thread (the load generator
/// opens one per worker). Requests may be pipelined: `send` several, then
/// `receive` responses (matched by id; they arrive in completion order,
/// not submission order). Only `run` requests participate in retry; raw
/// `send`/`receive` and registration are not re-sent (a reconnect keeps
/// registered programs — they are server-global, not per-connection).
class wire_client {
public:
  /// Connects to a loopback server and performs the preamble handshake.
  /// Throws socket_error / protocol_error on failure.
  [[nodiscard]] static wire_client connect(std::uint16_t port,
                                           const std::string& host = "127.0.0.1");

  wire_client(wire_client&&) noexcept = default;
  wire_client& operator=(wire_client&&) noexcept = default;

  /// Registers a program and returns the server-computed fingerprint for
  /// subsequent 8-byte-header runs. Throws wire_error on refusal, and
  /// std::invalid_argument, before sending anything, when a name of `net`
  /// cannot be written as `.mig` text (see io::write_mig).
  std::uint64_t register_program(const mig_network& net);
  std::uint64_t register_netlist(const std::string& mig_text);

  /// Sends one run request (no waiting). A zero id is replaced with an
  /// auto-incremented one; returns the id actually sent.
  std::uint64_t send(run_request req);

  /// Blocks for the next response (any id). Throws socket_error when the
  /// server closed the connection, protocol_error on undecodable bytes.
  [[nodiscard]] wire_response receive();

  /// Round-trip convenience: send, then receive until this request's id
  /// answers (stashing any other pipelined responses for later receive()
  /// calls). Under a retry policy (max_attempts > 1) this call reconnects
  /// and re-sends across socket errors — see retry_policy — and throws the
  /// last socket_error only once the attempts are exhausted.
  [[nodiscard]] wire_response run(run_request req);

  /// Installs the resilience policy (applies `try_timeout` to the live
  /// connection immediately). The default-constructed policy restores the
  /// non-retrying behavior.
  void set_retry_policy(retry_policy policy);
  [[nodiscard]] const client_stats& stats() const { return stats_; }

  /// Shuts the connection down (both directions).
  void close() { sock_.shutdown_both(); }

private:
  wire_client(tcp_socket sock, std::string host, std::uint16_t port)
      : sock_{std::move(sock)}, host_{std::move(host)}, port_{port} {}

  /// Dials + performs the preamble handshake (shared by connect/reconnect).
  [[nodiscard]] static tcp_socket dial(const std::string& host, std::uint16_t port);
  /// Re-dials after a socket error and re-sends every tracked unanswered
  /// request on the fresh connection.
  void reconnect();
  /// Writes one run frame without consuming the request (the tracked copy
  /// must survive for further re-sends).
  void write_request(const run_request& req);
  /// Blocks until the response with `id` arrives: drains the stash once,
  /// then reads frames off the socket, stashing every other id.
  [[nodiscard]] wire_response receive_matching(std::uint64_t id);

  tcp_socket sock_;
  std::string host_;
  std::uint16_t port_{0};
  std::uint64_t next_id_{1};
  std::deque<wire_response> stashed_;
  retry_policy policy_;
  client_stats stats_;
  /// Tracked requests of in-progress `run` calls: id → the request as
  /// sent, so a reconnect can replay it byte-for-byte.
  std::unordered_map<std::uint64_t, run_request> unanswered_;
  std::minstd_rand jitter_{0x5EED1E55u};
};

}  // namespace wavemig::net
