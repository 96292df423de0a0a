#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "wavemig/engine/serving.hpp"
#include "wavemig/net/protocol.hpp"
#include "wavemig/net/socket.hpp"

namespace wavemig::net {

struct server_options {
  /// Port to bind on the loopback interface; 0 binds an ephemeral port
  /// (`wire_server::port()` reports the bound one).
  std::uint16_t port{0};
  /// Hard bound on one frame's body length. An oversized length prefix is
  /// answered with `malformed_frame` and the connection closes — the
  /// stream cannot be resynchronized past a length we refuse to read.
  std::size_t max_frame_bytes{std::size_t{64} << 20};
  /// Accept backlog of the listening socket.
  int listen_backlog{64};
  /// Hard wall-clock bound on one accepted run request, measured from
  /// submission. A request that has not completed inside the bound is
  /// answered `wire_status::watchdog_expired` by a watchdog thread and its
  /// connection slot released — the engine may still finish it internally,
  /// but the late result is discarded. Zero (the default) disables the
  /// watchdog. Set it well above the p99 of your largest request: this is
  /// a leak-stopper for lost completions, not a scheduling deadline (use
  /// `run_request::deadline_ms` for that).
  std::chrono::milliseconds watchdog_bound{0};
};

/// Monotonic counters of a server's lifetime.
struct server_stats {
  std::uint64_t connections_accepted{0};
  std::uint64_t requests_ok{0};       ///< responses written with status ok
  std::uint64_t requests_refused{0};  ///< responses with any non-ok status
  std::uint64_t programs_registered{0};
  /// Requests the watchdog answered for (also counted in requests_refused).
  std::uint64_t requests_watchdog_expired{0};
};

/// The socket front-end over a `serving_session`: accepts loopback TCP
/// connections speaking the wavemig wire protocol (net/protocol.hpp) and
/// forwards run requests to `serving_session::submit_packed` — the request
/// payload is already plane-major, so the bytes read off the socket are
/// the words the kernel evaluates; no transpose, no copy.
///
/// Threading: one accept thread; per connection, one reader thread
/// (frames in, submissions out) and one writer thread (responses out, in
/// completion order — responses carry ids, so clients may pipeline).
/// Completion callbacks fire on executor workers and only enqueue the
/// encoded response; the blocking socket write happens on the
/// connection's writer thread, so a slow client never stalls a worker.
/// A connection whose client hangs up releases its fd when its reader
/// exits; the next accept (or shutdown) joins its threads.
///
/// Policies mapped onto the serving layer:
/// * priority byte and deadline_ms → `submit_options` (gulp order /
///   deadline_expired status),
/// * per-connection client id → the dispatcher's round-robin fairness,
/// * the session's admission limit → `admission_rejected` status,
/// * `begin_drain()` → new requests answered `draining` while accepted
///   ones flush; `shutdown()` then flushes, joins, and closes.
///
/// Payload validation is strict by default: stray bits above `num_waves`
/// reject the request (`run_flag_mask_tail_bits` opts back into masking).
class wire_server {
public:
  /// Binds and starts serving immediately. The session (and its executor)
  /// must outlive the server.
  explicit wire_server(engine::serving_session& session, server_options options = {});
  ~wire_server();

  wire_server(const wire_server&) = delete;
  wire_server& operator=(const wire_server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Enters drain mode: every subsequent run/register frame is refused
  /// with `wire_status::draining`, while already-submitted requests keep
  /// executing and their responses keep flowing. Irreversible.
  void begin_drain();

  /// Graceful shutdown: begin_drain(), stop accepting connections, flush
  /// every accepted request's response, then tear the connections down and
  /// join all threads. Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] server_stats stats() const;

  /// Programs registered (by register frames or inline run netlists).
  [[nodiscard]] std::size_t num_programs() const;

private:
  struct connection;

  /// One run request under watchdog supervision. `settled` is the
  /// exactly-once latch between the completion callback and the watchdog:
  /// whoever exchanges it to true answers the request; the loser discards.
  struct watch_entry {
    std::shared_ptr<connection> conn;
    std::uint64_t id{0};
    std::chrono::steady_clock::time_point expires;
    std::shared_ptr<std::atomic<bool>> settled;
  };

  void accept_loop();
  void watchdog_loop();
  void reader_loop(const std::shared_ptr<connection>& conn);
  void writer_loop(const std::shared_ptr<connection>& conn);
  /// Serves one decoded run request: resolves program + scenario, builds
  /// submit_options, submits. Refusals are answered inline.
  void serve_run(const std::shared_ptr<connection>& conn, run_request req);
  void serve_register(const std::shared_ptr<connection>& conn, const register_request& req);
  /// Parses and registers a `.mig` netlist; returns {fingerprint, net}.
  std::pair<std::uint64_t, std::shared_ptr<const mig_network>> register_netlist(
      const std::string& text);
  [[nodiscard]] std::shared_ptr<const mig_network> find_program(std::uint64_t fingerprint);
  /// Name → shared scenario, cached; throws unknown_technology_error.
  [[nodiscard]] std::shared_ptr<const tech_scenario> resolve_scenario(const std::string& name);
  /// Counts a response, then queues it on the connection's outbox; with
  /// `release_inflight`, releases the request's in-flight slot in the same
  /// critical section.
  void respond(const std::shared_ptr<connection>& conn, wire_response resp,
               bool release_inflight = false);
  void refuse(const std::shared_ptr<connection>& conn, std::uint64_t id, wire_status status,
              const std::string& message);
  /// Joins the threads of connections whose reader has exited.
  void reap();

  engine::serving_session& session_;
  server_options options_;
  tcp_listener listener_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> shut_down_{false};

  // Guards connections_, closed_, programs_, scenarios_ and stats_, and is
  // held to shut down or close a connection's fd.
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<connection>> connections_;  ///< open connections
  std::vector<std::shared_ptr<connection>> closed_;       ///< fd closed, thread unjoined
  std::unordered_map<std::uint64_t, std::shared_ptr<const mig_network>> programs_;
  std::unordered_map<std::string, std::shared_ptr<const tech_scenario>> scenarios_;
  server_stats stats_;
  std::uint64_t next_client_id_{1};

  std::mutex watch_mutex_;  // watched_, watch_stop_
  std::condition_variable watch_cv_;
  std::vector<watch_entry> watched_;
  bool watch_stop_{false};

  std::mutex shutdown_mutex_;  // serializes shutdown() callers
  std::thread accept_thread_;
  std::thread watchdog_thread_;
};

}  // namespace wavemig::net
