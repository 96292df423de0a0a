#include "wavemig/net/server.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <sstream>
#include <tuple>

#include "wavemig/fault/fault_injection.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/technology.hpp"

namespace wavemig::net {

namespace {

/// The wire status and message of an exception the serving layer threw
/// from submit_packed or handed to a completion callback.
[[nodiscard]] std::pair<wire_status, std::string> classify(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const engine::deadline_expired_error& e) {
    return {wire_status::deadline_expired, e.what()};
  } catch (const engine::admission_rejected_error& e) {
    return {wire_status::admission_rejected, e.what()};
  } catch (const engine::session_closed_error& e) {
    return {wire_status::draining, e.what()};
  } catch (const std::invalid_argument& e) {  // invalid_request_error included
    return {wire_status::invalid_request, e.what()};
  } catch (const std::exception& e) {
    return {wire_status::internal_error, e.what()};
  } catch (...) {
    return {wire_status::internal_error, "unknown exception"};
  }
}

}  // namespace

/// Per-connection state. The reader thread owns the socket's read side and
/// all submissions; the writer thread owns the write side (after the
/// reader's handshake reply, which happens-before any response exists).
/// Completion callbacks keep the connection alive via shared_ptr and only
/// touch the mutex-guarded outbox/inflight pair.
struct wire_server::connection {
  tcp_socket sock;
  std::uint64_t client_id{0};

  std::mutex mutex;
  std::condition_variable cv;  // writer wakeups; reader waiting inflight==0
  struct outgoing {
    std::vector<std::uint8_t> prefix;   ///< length word + body up to payload
    std::vector<std::uint64_t> words;   ///< result planes (native order)
  };
  std::deque<outgoing> outbox;
  std::size_t inflight{0};  ///< submitted to the session, response not yet queued
  bool stop{false};         ///< writer: flush the outbox, then exit
  bool write_failed{false};

  std::thread reader;
  std::thread writer;
};

wire_server::wire_server(engine::serving_session& session, server_options options)
    : session_{session},
      options_{options},
      listener_{tcp_listener::listen_loopback(options.port, options.listen_backlog)} {
  accept_thread_ = std::thread{[this] { accept_loop(); }};
  if (options_.watchdog_bound.count() > 0) {
    watchdog_thread_ = std::thread{[this] { watchdog_loop(); }};
  }
}

wire_server::~wire_server() { shutdown(); }

void wire_server::begin_drain() { draining_.store(true, std::memory_order_relaxed); }

void wire_server::shutdown() {
  std::lock_guard<std::mutex> shutdown_lock{shutdown_mutex_};
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  begin_drain();
  // Unblock and join the accept loop first so no new connection appears
  // while the existing ones tear down.
  listener_.close();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // Read-side only: each reader unblocks and exits, then waits for its
  // connection's in-flight requests, whose responses the writer still
  // flushes down the intact write side — no accepted request's response is
  // ever dropped. Under mutex_, so no reader closes the fd meanwhile.
  std::vector<std::shared_ptr<connection>> open;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    open = connections_;
    for (const auto& conn : open) {
      conn->sock.shutdown_read();
    }
  }
  for (const auto& conn : open) {
    if (conn->reader.joinable()) {
      conn->reader.join();  // the reader joins its writer before returning
    }
  }
  reap();
  // The watchdog joins *after* the readers: a reader's final flush waits
  // for inflight == 0, and when a completion was lost it is the watchdog
  // that expires the request and releases that count.
  {
    std::lock_guard<std::mutex> lock{watch_mutex_};
    watch_stop_ = true;
  }
  watch_cv_.notify_all();
  if (watchdog_thread_.joinable()) {
    watchdog_thread_.join();
  }
}

void wire_server::watchdog_loop() {
  // Scan at a quarter of the bound so an expired request is answered at
  // most ~25% late, clamped so tight test bounds don't busy-spin and huge
  // production bounds still notice shutdown promptly.
  const auto interval = std::clamp(options_.watchdog_bound / 4,
                                   std::chrono::milliseconds{1},
                                   std::chrono::milliseconds{250});
  std::unique_lock<std::mutex> lock{watch_mutex_};
  while (!watch_stop_) {
    watch_cv_.wait_for(lock, interval, [&] { return watch_stop_; });
    if (watch_stop_) {
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    std::vector<watch_entry> expired;
    for (auto it = watched_.begin(); it != watched_.end();) {
      if (it->settled->load(std::memory_order_acquire)) {
        it = watched_.erase(it);  // answered normally; nothing to watch
        continue;
      }
      if (now >= it->expires) {
        // Win the latch or lose it to a completion racing us right now;
        // only the winner answers.
        if (!it->settled->exchange(true, std::memory_order_acq_rel)) {
          expired.push_back(std::move(*it));
        }
        it = watched_.erase(it);
        continue;
      }
      ++it;
    }
    lock.unlock();
    for (const auto& entry : expired) {
      refuse(entry.conn, entry.id, wire_status::watchdog_expired,
             "request exceeded the server watchdog bound");
      {
        std::lock_guard<std::mutex> conn_lock{entry.conn->mutex};
        --entry.conn->inflight;
      }
      entry.conn->cv.notify_all();
    }
    lock.lock();
  }
}

server_stats wire_server::stats() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return stats_;
}

std::size_t wire_server::num_programs() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return programs_.size();
}

void wire_server::accept_loop() {
  for (;;) {
    tcp_socket sock = listener_.accept();
    if (!sock.valid()) {
      return;  // listener closed
    }
    reap();
    auto conn = std::make_shared<connection>();
    conn->sock = std::move(sock);
    {
      std::lock_guard<std::mutex> lock{mutex_};
      conn->client_id = next_client_id_++;
      ++stats_.connections_accepted;
      connections_.push_back(conn);
    }
    conn->writer = std::thread{[this, conn] { writer_loop(conn); }};
    conn->reader = std::thread{[this, conn] { reader_loop(conn); }};
  }
}

void wire_server::writer_loop(const std::shared_ptr<connection>& conn) {
  for (;;) {
    connection::outgoing out;
    {
      std::unique_lock<std::mutex> lock{conn->mutex};
      conn->cv.wait(lock, [&] { return conn->stop || !conn->outbox.empty(); });
      if (conn->outbox.empty()) {
        return;  // stop and fully flushed
      }
      out = std::move(conn->outbox.front());
      conn->outbox.pop_front();
    }
    // server.writer.die: the writer silently stops transmitting, as if its
    // thread had crashed mid-stream — the client's per-try timeout is what
    // recovers. server.writer.stall (delay action) sleeps inside hit(),
    // modelling a slow-consumer backlog.
    if (WAVEMIG_FAULT_HIT("server.writer.die").fired) {
      conn->write_failed = true;
    }
    (void)WAVEMIG_FAULT_HIT("server.writer.stall");
    if (conn->write_failed) {
      continue;  // client is gone; keep draining queued responses cheaply
    }
    try {
      write_frame(conn->sock, out.prefix, out.words);
    } catch (const socket_error&) {
      std::lock_guard<std::mutex> lock{conn->mutex};
      conn->write_failed = true;
    }
  }
}

void wire_server::respond(const std::shared_ptr<connection>& conn, wire_response resp,
                          bool release_inflight) {
  // Stats first: once the client can observe the response, stats() must
  // already account for it.
  {
    std::lock_guard<std::mutex> lock{mutex_};
    if (resp.status == wire_status::ok) {
      ++stats_.requests_ok;
    } else {
      ++stats_.requests_refused;
      if (resp.status == wire_status::watchdog_expired) {
        ++stats_.requests_watchdog_expired;  // only the watchdog answers so
      }
    }
  }
  connection::outgoing out{encode_response_frame_prefix(resp), std::move(resp.result.words)};
  {
    std::lock_guard<std::mutex> lock{conn->mutex};
    conn->outbox.push_back(std::move(out));
    if (release_inflight) {
      --conn->inflight;
    }
  }
  conn->cv.notify_all();
}

void wire_server::refuse(const std::shared_ptr<connection>& conn, std::uint64_t id,
                         wire_status status, const std::string& message) {
  wire_response resp;
  resp.id = id;
  resp.status = status;
  resp.message = message;
  respond(conn, std::move(resp));
}

void wire_server::reap() {
  std::vector<std::shared_ptr<connection>> closed;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    closed.swap(closed_);
  }
  for (const auto& conn : closed) {
    if (conn->reader.joinable()) {
      conn->reader.join();  // already returned, or about to
    }
  }
}

std::pair<std::uint64_t, std::shared_ptr<const mig_network>> wire_server::register_netlist(
    const std::string& text) {
  std::istringstream is{text};
  auto net = std::make_shared<const mig_network>(io::read_mig(is));
  const std::uint64_t fp = engine::network_fingerprint(*net);
  std::lock_guard<std::mutex> lock{mutex_};
  auto [it, inserted] = programs_.try_emplace(fp, net);
  if (inserted) {
    ++stats_.programs_registered;
  }
  // Serve the first-registered instance so repeat registrations of one
  // program keep hitting the session's fingerprint memo by pointer.
  return {fp, it->second};
}

std::shared_ptr<const mig_network> wire_server::find_program(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock{mutex_};
  const auto it = programs_.find(fingerprint);
  return it == programs_.end() ? nullptr : it->second;
}

std::shared_ptr<const tech_scenario> wire_server::resolve_scenario(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock{mutex_};
    if (const auto it = scenarios_.find(name); it != scenarios_.end()) {
      return it->second;
    }
  }
  // by_name throws unknown_technology_error outside the lock; a hit is
  // cached by name so every request for one scenario shares one pointer
  // (and therefore one compiled-program cache entry).
  auto scenario = std::make_shared<const tech_scenario>(tech_scenario::by_name(name));
  std::lock_guard<std::mutex> lock{mutex_};
  return scenarios_.try_emplace(name, std::move(scenario)).first->second;
}

void wire_server::serve_register(const std::shared_ptr<connection>& conn,
                                 const register_request& req) {
  if (draining_.load(std::memory_order_relaxed)) {
    refuse(conn, req.id, wire_status::draining, "server is draining");
    return;
  }
  wire_response resp;
  resp.id = req.id;
  try {
    const auto [fp, net] = register_netlist(req.netlist);
    resp.fingerprint = fp;
    resp.result.num_pos = net->num_pos();
  } catch (const std::exception& e) {
    refuse(conn, req.id, wire_status::invalid_request, e.what());
    return;
  }
  respond(conn, std::move(resp));
}

void wire_server::serve_run(const std::shared_ptr<connection>& conn, run_request req) {
  if (draining_.load(std::memory_order_relaxed)) {
    refuse(conn, req.id, wire_status::draining, "server is draining");
    return;
  }

  std::shared_ptr<const mig_network> net;
  if (!req.netlist.empty()) {
    try {
      auto [fp, registered] = register_netlist(req.netlist);
      net = std::move(registered);
      // The ok response echoes the computed fingerprint, so an inline-netlist
      // client can switch to 8-byte fingerprint headers without a separate
      // register round-trip.
      req.fingerprint = fp;
    } catch (const std::exception& e) {
      refuse(conn, req.id, wire_status::invalid_request, e.what());
      return;
    }
  } else {
    net = find_program(req.fingerprint);
    if (!net) {
      refuse(conn, req.id, wire_status::unknown_program,
             "fingerprint not registered (register the program or inline the netlist)");
      return;
    }
  }
  // The payload is only checked against the program's own shape, so a
  // header that declares another PI count would be served under the
  // program's: refuse it before submitting.
  if (req.num_pis != net->num_pis()) {
    refuse(conn, req.id, wire_status::invalid_request,
           "run header declares " + std::to_string(req.num_pis) +
               " primary inputs; the program has " + std::to_string(net->num_pis()));
    return;
  }

  engine::submit_options opts;
  opts.priority = req.priority;
  opts.client_id = conn->client_id;
  opts.reject_stray_tail_bits = (req.flags & run_flag_mask_tail_bits) == 0;
  if (req.deadline_ms != 0) {
    opts.deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds{req.deadline_ms};
  }
  if (!req.scenario.empty()) {
    try {
      opts.scenario = resolve_scenario(req.scenario);
    } catch (const unknown_technology_error& e) {
      refuse(conn, req.id, wire_status::unknown_scenario, e.what());
      return;
    }
  }

  const std::uint64_t id = req.id;
  {
    std::lock_guard<std::mutex> lock{conn->mutex};
    ++conn->inflight;
  }
  // Under a watchdog, register the request *before* submitting: once
  // submit_packed is called, a lost completion can only be recovered here.
  std::shared_ptr<std::atomic<bool>> settled;
  if (options_.watchdog_bound.count() > 0) {
    settled = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard<std::mutex> lock{watch_mutex_};
    watched_.push_back(watch_entry{
        conn, id, std::chrono::steady_clock::now() + options_.watchdog_bound, settled});
  }
  try {
    const std::uint64_t fingerprint = req.fingerprint;
    session_.submit_packed(
        std::move(net), std::move(req.payload), static_cast<std::size_t>(req.num_waves),
        req.phases,
        [this, conn, id, fingerprint, settled](engine::packed_wave_result result,
                                               std::exception_ptr error) {
          if (settled && settled->exchange(true, std::memory_order_acq_rel)) {
            // The watchdog already answered (and released the inflight
            // count) for this request; the late result is discarded.
            return;
          }
          wire_response resp;
          resp.id = id;
          resp.fingerprint = fingerprint;
          if (error) {
            std::tie(resp.status, resp.message) = classify(error);
          } else {
            resp.result = std::move(result);
          }
          respond(conn, std::move(resp), /*release_inflight=*/true);
        },
        std::move(opts));
  } catch (...) {
    if (settled && settled->exchange(true, std::memory_order_acq_rel)) {
      return;  // the watchdog answered first; it already released inflight
    }
    {
      std::lock_guard<std::mutex> lock{conn->mutex};
      --conn->inflight;
    }
    const auto [status, message] = classify(std::current_exception());
    refuse(conn, id, status, message);
  }
}

void wire_server::reader_loop(const std::shared_ptr<connection>& conn) {
  // Handshake: expect the client preamble, echo our own. The reply happens
  // before any frame is read, hence before any response can exist — so the
  // writer thread never races this write.
  bool alive = false;
  try {
    if (read_preamble(conn->sock)) {
      write_preamble(conn->sock);
      alive = true;
    }
  } catch (const socket_error&) {
  }

  while (alive) {
    // server.reader.die: the reader exits as if its thread had crashed.
    // The flush below still runs — in-flight responses reach the client
    // before the close, so a retrying client loses at most unsent frames.
    if (WAVEMIG_FAULT_HIT("server.reader.die").fired) {
      break;
    }
    request_frame frame;
    try {
      frame = read_request_frame(conn->sock, options_.max_frame_bytes);
    } catch (const frame_error& e) {
      refuse(conn, e.id(), wire_status::malformed_frame, e.what());
      alive = e.in_sync();
      continue;
    } catch (const socket_error&) {
      break;  // disconnect, clean or mid-frame: nothing to answer
    }
    if (auto* run = std::get_if<run_request>(&frame)) {
      serve_run(conn, std::move(*run));
    } else {
      serve_register(conn, std::get<register_request>(frame));
    }
  }

  // Flush before teardown: wait until every submitted request's response
  // has been queued, tell the writer to finish the outbox, and join it.
  {
    std::unique_lock<std::mutex> lock{conn->mutex};
    conn->cv.wait(lock, [&] { return conn->inflight == 0; });
    conn->stop = true;
  }
  conn->cv.notify_all();
  if (conn->writer.joinable()) {
    conn->writer.join();
  }
  // Release the fd now and leave the thread to the next accept (or
  // shutdown) to join. Under mutex_, so shutdown() never calls
  // shutdown_read() on a closed fd, whose number may already be reused.
  std::lock_guard<std::mutex> lock{mutex_};
  conn->sock.close();
  connections_.erase(std::find(connections_.begin(), connections_.end(), conn));
  closed_.push_back(conn);
}

}  // namespace wavemig::net
