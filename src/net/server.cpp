#include "wavemig/net/server.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <sstream>

#include "wavemig/fault/fault_injection.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/technology.hpp"

namespace wavemig::net {

namespace {

[[nodiscard]] std::vector<std::uint8_t> encode_preamble() {
  std::vector<std::uint8_t> out;
  out.reserve(8);
  byte_writer w{out};
  w.u32(wire_magic);
  w.u32(wire_version);
  return out;
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
  std::vector<std::shared_ptr<connection>> connections;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    connections = connections_;
  }
  for (const auto& conn : connections) {
    // Read-side only: the reader unblocks and exits, then waits for the
    // connection's in-flight requests, whose responses the writer still
    // flushes down the intact write side — no accepted request's response
    // is ever dropped.
    conn->sock.shutdown_read();
  }
  for (const auto& conn : connections) {
    if (conn->reader.joinable()) {
      conn->reader.join();  // the reader joins its writer before returning
    }
  }
  {
    std::lock_guard<std::mutex> lock{mutex_};
    connections_.clear();
  }
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
      // Stats first: once the client can observe the watchdog_expired
      // response, stats() must already account for it.
      {
        std::lock_guard<std::mutex> stats_lock{mutex_};
        ++stats_.requests_refused;
        ++stats_.requests_watchdog_expired;
      }
      respond_status(entry.conn, entry.id, wire_status::watchdog_expired,
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
      conn->sock.write_all(out.prefix.data(), out.prefix.size());
      if (!out.words.empty()) {
        words_to_wire(out.words.data(), out.words.size());
        conn->sock.write_all(out.words.data(),
                             out.words.size() * sizeof(std::uint64_t));
      }
    } catch (const socket_error&) {
      std::lock_guard<std::mutex> lock{conn->mutex};
      conn->write_failed = true;
    }
  }
}

void wire_server::respond_status(const std::shared_ptr<connection>& conn, std::uint64_t id,
                                 wire_status status, const std::string& message) {
  wire_response resp;
  resp.id = id;
  resp.status = status;
  resp.message = message;
  connection::outgoing out;
  out.prefix = encode_response_frame_prefix(resp);
  {
    std::lock_guard<std::mutex> lock{conn->mutex};
    conn->outbox.push_back(std::move(out));
  }
  conn->cv.notify_all();
}

void wire_server::count_response(wire_status status) {
  std::lock_guard<std::mutex> lock{mutex_};
  if (status == wire_status::ok) {
    ++stats_.requests_ok;
  } else {
    ++stats_.requests_refused;
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
    respond_status(conn, req.id, wire_status::draining, "server is draining");
    count_response(wire_status::draining);
    return;
  }
  try {
    const auto [fp, net] = register_netlist(req.netlist);
    wire_response resp;
    resp.id = req.id;
    resp.status = wire_status::ok;
    resp.fingerprint = fp;
    resp.result.num_pos = net->num_pos();
    connection::outgoing out;
    out.prefix = encode_response_frame_prefix(resp);
    {
      std::lock_guard<std::mutex> lock{conn->mutex};
      conn->outbox.push_back(std::move(out));
    }
    conn->cv.notify_all();
    count_response(wire_status::ok);
  } catch (const std::exception& e) {
    respond_status(conn, req.id, wire_status::invalid_request, e.what());
    count_response(wire_status::invalid_request);
  }
}

void wire_server::serve_run(const std::shared_ptr<connection>& conn, run_request req) {
  if (draining_.load(std::memory_order_relaxed)) {
    respond_status(conn, req.id, wire_status::draining, "server is draining");
    count_response(wire_status::draining);
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
      respond_status(conn, req.id, wire_status::invalid_request, e.what());
      count_response(wire_status::invalid_request);
      return;
    }
  } else {
    net = find_program(req.fingerprint);
    if (!net) {
      respond_status(conn, req.id, wire_status::unknown_program,
                     "fingerprint not registered (register the program or inline the netlist)");
      count_response(wire_status::unknown_program);
      return;
    }
  }
  // The payload is only checked against the program's own shape, so a
  // header that declares another PI count would be served under the
  // program's: refuse it before submitting.
  if (req.num_pis != net->num_pis()) {
    respond_status(conn, req.id, wire_status::invalid_request,
                   "run header declares " + std::to_string(req.num_pis) +
                       " primary inputs; the program has " +
                       std::to_string(net->num_pis()));
    count_response(wire_status::invalid_request);
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
      respond_status(conn, req.id, wire_status::unknown_scenario, e.what());
      count_response(wire_status::unknown_scenario);
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
  auto retire = [conn](wire_response resp) {
    connection::outgoing out;
    out.prefix = encode_response_frame_prefix(resp);
    out.words = std::move(resp.result.words);
    {
      std::lock_guard<std::mutex> lock{conn->mutex};
      conn->outbox.push_back(std::move(out));
      --conn->inflight;
    }
    conn->cv.notify_all();
  };
  try {
    const std::uint64_t fingerprint = req.fingerprint;
    session_.submit_packed(
        std::move(net), std::move(req.payload), static_cast<std::size_t>(req.num_waves),
        req.phases,
        [this, conn, id, fingerprint, retire, settled](engine::packed_wave_result result,
                                                       std::exception_ptr error) {
          if (settled && settled->exchange(true, std::memory_order_acq_rel)) {
            // The watchdog already answered (and released the inflight
            // count) for this request; the late result is discarded.
            return;
          }
          wire_response resp;
          resp.id = id;
          resp.fingerprint = fingerprint;
          if (!error) {
            resp.status = wire_status::ok;
            resp.result = std::move(result);
          } else {
            try {
              std::rethrow_exception(error);
            } catch (const engine::deadline_expired_error& e) {
              resp.status = wire_status::deadline_expired;
              resp.message = e.what();
            } catch (const engine::invalid_request_error& e) {
              resp.status = wire_status::invalid_request;
              resp.message = e.what();
            } catch (const std::invalid_argument& e) {
              resp.status = wire_status::invalid_request;
              resp.message = e.what();
            } catch (const std::exception& e) {
              resp.status = wire_status::internal_error;
              resp.message = e.what();
            }
          }
          count_response(resp.status);
          retire(std::move(resp));
        },
        std::move(opts));
  } catch (const engine::admission_rejected_error& e) {
    if (settled && settled->exchange(true, std::memory_order_acq_rel)) {
      return;  // the watchdog answered first; it already released inflight
    }
    {
      std::lock_guard<std::mutex> lock{conn->mutex};
      --conn->inflight;
    }
    respond_status(conn, id, wire_status::admission_rejected, e.what());
    count_response(wire_status::admission_rejected);
  } catch (const engine::session_closed_error& e) {
    if (settled && settled->exchange(true, std::memory_order_acq_rel)) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock{conn->mutex};
      --conn->inflight;
    }
    respond_status(conn, id, wire_status::draining, e.what());
    count_response(wire_status::draining);
  } catch (const std::exception& e) {
    if (settled && settled->exchange(true, std::memory_order_acq_rel)) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock{conn->mutex};
      --conn->inflight;
    }
    respond_status(conn, id, wire_status::internal_error, e.what());
    count_response(wire_status::internal_error);
  }
}

void wire_server::reader_loop(const std::shared_ptr<connection>& conn) {
  // Handshake: expect the client preamble, echo our own. The reply happens
  // before any frame is read, hence before any response can exist — so the
  // writer thread never races this write.
  bool alive = false;
  std::uint8_t preamble[8];
  if (conn->sock.read_exact(preamble, sizeof preamble)) {
    byte_reader r{preamble, sizeof preamble};
    const std::uint32_t magic = r.u32();
    const std::uint32_t version = r.u32();
    if (magic == wire_magic && version == wire_version) {
      try {
        const auto reply = encode_preamble();
        conn->sock.write_all(reply.data(), reply.size());
        alive = true;
      } catch (const socket_error&) {
      }
    }
  }

  std::vector<std::uint8_t> scratch;
  // Drains `n` body bytes to stay frame-synchronized after a refusal.
  const auto discard = [&](std::size_t n) -> bool {
    scratch.resize(std::min<std::size_t>(n, 4096));
    while (n > 0) {
      const std::size_t step = std::min(n, scratch.size());
      if (!conn->sock.read_exact(scratch.data(), step)) {
        return false;
      }
      n -= step;
    }
    return true;
  };

  while (alive) {
    // server.reader.die: the reader exits as if its thread had crashed.
    // The flush below still runs — in-flight responses reach the client
    // before the close, so a retrying client loses at most unsent frames.
    if (WAVEMIG_FAULT_HIT("server.reader.die").fired) {
      break;
    }
    std::uint8_t len_bytes[4];
    if (!conn->sock.read_exact(len_bytes, sizeof len_bytes)) {
      break;  // clean disconnect (or truncated frame: nothing to answer)
    }
    byte_reader len_reader{len_bytes, sizeof len_bytes};
    const std::uint32_t body_len = len_reader.u32();
    if (body_len == 0 || body_len > options_.max_frame_bytes) {
      // An oversized length prefix cannot be skipped (we refuse to read
      // that much); the stream is unrecoverable past it.
      respond_status(conn, 0, wire_status::malformed_frame,
                     "frame length out of bounds");
      count_response(wire_status::malformed_frame);
      break;
    }

    std::uint8_t kind = 0;
    if (!conn->sock.read_exact(&kind, 1)) {
      break;
    }
    const std::size_t rest = body_len - 1;

    if (kind == static_cast<std::uint8_t>(frame_kind::run)) {
      if (rest < run_fixed_bytes - 1) {
        if (!discard(rest)) {
          break;
        }
        respond_status(conn, 0, wire_status::malformed_frame, "run frame too short");
        count_response(wire_status::malformed_frame);
        continue;
      }
      std::uint8_t fixed[run_fixed_bytes - 1];
      if (!conn->sock.read_exact(fixed, sizeof fixed)) {
        break;
      }
      byte_reader r{fixed, sizeof fixed};
      run_request req;
      req.id = r.u64();
      req.priority = r.u8();
      req.flags = r.u8();
      const std::uint16_t scenario_len = r.u16();
      req.deadline_ms = r.u32();
      req.phases = r.u32();
      req.num_pis = r.u32();
      const std::uint32_t netlist_len = r.u32();
      req.fingerprint = r.u64();
      req.num_waves = r.u64();

      const std::size_t after_fixed = rest - (run_fixed_bytes - 1);
      const std::size_t var_len = std::size_t{scenario_len} + std::size_t{netlist_len};
      if (var_len > after_fixed ||
          (after_fixed - var_len) % sizeof(std::uint64_t) != 0) {
        if (!discard(after_fixed)) {
          break;
        }
        respond_status(conn, req.id, wire_status::malformed_frame,
                       "run frame lengths disagree");
        count_response(wire_status::malformed_frame);
        continue;
      }
      if (scenario_len > 0) {
        req.scenario.resize(scenario_len);
        if (!conn->sock.read_exact(req.scenario.data(), scenario_len)) {
          break;
        }
      }
      if (netlist_len > 0) {
        req.netlist.resize(netlist_len);
        if (!conn->sock.read_exact(req.netlist.data(), netlist_len)) {
          break;
        }
      }
      // The zero-copy read: payload words land directly in the vector that
      // submit_packed adopts, which the kernel then evaluates in place.
      const std::size_t payload_words =
          (after_fixed - var_len) / sizeof(std::uint64_t);
      req.payload.resize(payload_words);
      if (payload_words > 0 &&
          !conn->sock.read_exact(req.payload.data(),
                                 payload_words * sizeof(std::uint64_t))) {
        break;
      }
      words_from_wire(req.payload.data(), payload_words);
      serve_run(conn, std::move(req));
    } else if (kind == static_cast<std::uint8_t>(frame_kind::register_program)) {
      if (rest < register_fixed_bytes - 1) {
        if (!discard(rest)) {
          break;
        }
        respond_status(conn, 0, wire_status::malformed_frame, "register frame too short");
        count_response(wire_status::malformed_frame);
        continue;
      }
      std::uint8_t fixed[register_fixed_bytes - 1];
      if (!conn->sock.read_exact(fixed, sizeof fixed)) {
        break;
      }
      byte_reader r{fixed, sizeof fixed};
      register_request req;
      req.id = r.u64();
      const std::uint32_t netlist_len = r.u32();
      if (netlist_len != rest - (register_fixed_bytes - 1)) {
        if (!discard(rest - (register_fixed_bytes - 1))) {
          break;
        }
        respond_status(conn, req.id, wire_status::malformed_frame,
                       "register frame lengths disagree");
        count_response(wire_status::malformed_frame);
        continue;
      }
      req.netlist.resize(netlist_len);
      if (netlist_len > 0 && !conn->sock.read_exact(req.netlist.data(), netlist_len)) {
        break;
      }
      serve_register(conn, req);
    } else {
      // Unknown kind: the frame is still length-delimited, so skip it and
      // keep the stream alive.
      if (!discard(rest)) {
        break;
      }
      respond_status(conn, 0, wire_status::malformed_frame, "unknown frame kind");
      count_response(wire_status::malformed_frame);
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
  conn->sock.shutdown_both();
}

}  // namespace wavemig::net
