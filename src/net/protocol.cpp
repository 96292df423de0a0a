#include "wavemig/net/protocol.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "wavemig/net/socket.hpp"

namespace wavemig::net {

namespace {

template <typename T>
[[nodiscard]] T byteswap_integral(T v) {
  T out = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out = static_cast<T>(out << 8) | static_cast<T>((v >> (8 * i)) & 0xFF);
  }
  return out;
}

template <typename T>
[[nodiscard]] T to_wire(T v) {
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    return byteswap_integral(v);
  }
}

/// Byteswaps payload words on big-endian hosts, to wire order or back (the
/// swap is its own inverse); a no-op on little-endian ones.
void swap_words(std::span<std::uint64_t> words) {
  if constexpr (std::endian::native != std::endian::little) {
    for (std::uint64_t& word : words) {
      word = byteswap_integral(word);
    }
  }
}

/// Responses are bounded by the result planes of one request, which the
/// request itself bounded; anything past this is a corrupt stream.
constexpr std::size_t max_response_bytes = std::size_t{1} << 30;

}  // namespace

const char* to_string(wire_status status) {
  switch (status) {
    case wire_status::ok: return "ok";
    case wire_status::malformed_frame: return "malformed_frame";
    case wire_status::invalid_request: return "invalid_request";
    case wire_status::unknown_program: return "unknown_program";
    case wire_status::unknown_scenario: return "unknown_scenario";
    case wire_status::admission_rejected: return "admission_rejected";
    case wire_status::draining: return "draining";
    case wire_status::deadline_expired: return "deadline_expired";
    case wire_status::internal_error: return "internal_error";
    case wire_status::watchdog_expired: return "watchdog_expired";
  }
  return "unknown_status";
}

void byte_writer::raw(const void* data, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out_.insert(out_.end(), bytes, bytes + n);
}

void byte_writer::u16(std::uint16_t v) {
  const std::uint16_t wire = to_wire(v);
  raw(&wire, sizeof wire);
}

void byte_writer::u32(std::uint32_t v) {
  const std::uint32_t wire = to_wire(v);
  raw(&wire, sizeof wire);
}

void byte_writer::u64(std::uint64_t v) {
  const std::uint64_t wire = to_wire(v);
  raw(&wire, sizeof wire);
}

const std::uint8_t* byte_reader::take(std::size_t n) {
  if (n > size_ - at_) {
    throw protocol_error{"wire: truncated frame body"};
  }
  const std::uint8_t* p = data_ + at_;
  at_ += n;
  return p;
}

std::uint16_t byte_reader::from_wire(std::uint16_t v) { return to_wire(v); }
std::uint32_t byte_reader::from_wire(std::uint32_t v) { return to_wire(v); }
std::uint64_t byte_reader::from_wire(std::uint64_t v) { return to_wire(v); }

std::vector<std::uint8_t> encode_run_frame_prefix(const run_request& req) {
  if (req.scenario.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw protocol_error{"wire: scenario name too long"};
  }
  if (req.netlist.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw protocol_error{"wire: inline netlist too long"};
  }
  const std::size_t body = run_fixed_bytes + req.scenario.size() + req.netlist.size() +
                           req.payload.size() * sizeof(std::uint64_t);
  if (body > std::numeric_limits<std::uint32_t>::max()) {
    throw protocol_error{"wire: frame exceeds the u32 length prefix"};
  }
  std::vector<std::uint8_t> out;
  out.reserve(4 + run_fixed_bytes + req.scenario.size() + req.netlist.size());
  byte_writer w{out};
  w.u32(static_cast<std::uint32_t>(body));
  w.u8(static_cast<std::uint8_t>(frame_kind::run));
  w.u64(req.id);
  w.u8(req.priority);
  w.u8(req.flags);
  w.u16(static_cast<std::uint16_t>(req.scenario.size()));
  w.u32(req.deadline_ms);
  w.u32(req.phases);
  w.u32(req.num_pis);
  w.u32(static_cast<std::uint32_t>(req.netlist.size()));
  w.u64(req.fingerprint);
  w.u64(req.num_waves);
  w.bytes(req.scenario.data(), req.scenario.size());
  w.bytes(req.netlist.data(), req.netlist.size());
  return out;
}

std::vector<std::uint8_t> encode_register_frame(const register_request& req) {
  if (req.netlist.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw protocol_error{"wire: netlist too long"};
  }
  const std::size_t body = register_fixed_bytes + req.netlist.size();
  if (body > std::numeric_limits<std::uint32_t>::max()) {
    throw protocol_error{"wire: frame exceeds the u32 length prefix"};
  }
  std::vector<std::uint8_t> out;
  out.reserve(4 + body);
  byte_writer w{out};
  w.u32(static_cast<std::uint32_t>(body));
  w.u8(static_cast<std::uint8_t>(frame_kind::register_program));
  w.u64(req.id);
  w.u32(static_cast<std::uint32_t>(req.netlist.size()));
  w.bytes(req.netlist.data(), req.netlist.size());
  return out;
}

std::vector<std::uint8_t> encode_response_frame_prefix(const wire_response& resp) {
  std::vector<std::uint8_t> out;
  byte_writer w{out};
  if (resp.status == wire_status::ok) {
    const std::size_t body = response_fixed_bytes + response_ok_extra_bytes +
                             resp.result.words.size() * sizeof(std::uint64_t);
    if (body > std::numeric_limits<std::uint32_t>::max()) {
      throw protocol_error{"wire: response exceeds the u32 length prefix"};
    }
    out.reserve(4 + response_fixed_bytes + response_ok_extra_bytes);
    w.u32(static_cast<std::uint32_t>(body));
    w.u8(static_cast<std::uint8_t>(frame_kind::response));
    w.u64(resp.id);
    w.u8(static_cast<std::uint8_t>(resp.status));
    w.u64(resp.fingerprint);
    w.u64(static_cast<std::uint64_t>(resp.result.num_waves));
    w.u32(static_cast<std::uint32_t>(resp.result.num_pos));
    w.u64(resp.result.ticks);
    w.u32(resp.result.latency_ticks);
    w.u32(resp.result.initiation_interval);
    w.u32(resp.result.waves_in_flight);
  } else {
    const std::size_t body = response_fixed_bytes + 4 + resp.message.size();
    if (body > std::numeric_limits<std::uint32_t>::max()) {
      throw protocol_error{"wire: response exceeds the u32 length prefix"};
    }
    out.reserve(4 + body);
    w.u32(static_cast<std::uint32_t>(body));
    w.u8(static_cast<std::uint8_t>(frame_kind::response));
    w.u64(resp.id);
    w.u8(static_cast<std::uint8_t>(resp.status));
    w.u32(static_cast<std::uint32_t>(resp.message.size()));
    w.bytes(resp.message.data(), resp.message.size());
  }
  return out;
}

void write_preamble(tcp_socket& sock) {
  std::vector<std::uint8_t> out;
  byte_writer w{out};
  w.u32(wire_magic);
  w.u32(wire_version);
  sock.write_all(out.data(), out.size());
}

bool read_preamble(tcp_socket& sock) {
  std::uint8_t bytes[8];
  if (!sock.read_exact(bytes, sizeof bytes)) {
    throw socket_error{"wire: peer closed during handshake"};
  }
  byte_reader r{bytes, sizeof bytes};
  const std::uint32_t magic = r.u32();
  return magic == wire_magic && r.u32() == wire_version;
}

void write_frame(tcp_socket& sock, std::span<const std::uint8_t> prefix,
                 std::span<const std::uint64_t> words) {
  sock.write_all(prefix.data(), prefix.size());
  if (words.empty()) {
    return;
  }
  if constexpr (std::endian::native == std::endian::little) {
    sock.write_all(words.data(), words.size_bytes());
  } else {
    std::vector<std::uint64_t> wire_words(words.begin(), words.end());
    swap_words(wire_words);
    sock.write_all(wire_words.data(), words.size_bytes());
  }
}

namespace {

/// The body of one frame as a decoder sees it: bytes in memory (the span
/// form) or the rest of a frame on a socket (the socket form). Decoders
/// read each fixed header with one `header` and each variable part with one
/// `read` into its final container, so the socket form never buffers a
/// body.
class frame_body {
public:
  frame_body(const std::uint8_t* data, std::size_t size) : data_{data}, left_{size} {}
  frame_body(tcp_socket& sock, std::size_t size) : sock_{&sock}, left_{size} {}

  [[nodiscard]] std::size_t remaining() const { return left_; }

  /// Moves the next `n` bytes to `out`. Throws protocol_error when fewer
  /// are left, socket_error when the peer closes mid-frame.
  void read(void* out, std::size_t n) {
    if (n > left_) {
      throw protocol_error{"wire: truncated frame body"};
    }
    if (n == 0) {
      return;
    }
    if (sock_ == nullptr) {
      std::memcpy(out, data_, n);
      data_ += n;
    } else if (!sock_->read_exact(out, n)) {
      throw socket_error{"wire: connection closed mid-frame"};
    }
    left_ -= n;
  }

  /// Reads a fixed header of `n` bytes into `buf`, or throws
  /// protocol_error{too_short} without reading when fewer are left.
  [[nodiscard]] byte_reader header(std::uint8_t* buf, std::size_t n, const char* too_short) {
    if (n > left_) {
      throw protocol_error{too_short};
    }
    read(buf, n);
    return byte_reader{buf, n};
  }

  /// Skips the rest of the frame, so the next one can be read.
  void skip_rest() {
    std::uint8_t scratch[4096];
    while (left_ > 0) {
      read(scratch, std::min(left_, sizeof scratch));
    }
  }

private:
  tcp_socket* sock_{nullptr};
  const std::uint8_t* data_{nullptr};
  std::size_t left_;
};

/// Run body after the kind byte.
void decode_run(frame_body& body, run_request& out) {
  std::uint8_t fixed[run_fixed_bytes - 1];
  byte_reader r = body.header(fixed, sizeof fixed, "run frame too short");
  out.id = r.u64();
  out.priority = r.u8();
  out.flags = r.u8();
  const std::uint16_t scenario_len = r.u16();
  out.deadline_ms = r.u32();
  out.phases = r.u32();
  out.num_pis = r.u32();
  const std::uint32_t netlist_len = r.u32();
  out.fingerprint = r.u64();
  out.num_waves = r.u64();
  const std::size_t var_len = std::size_t{scenario_len} + std::size_t{netlist_len};
  if (var_len > body.remaining() ||
      (body.remaining() - var_len) % sizeof(std::uint64_t) != 0) {
    throw protocol_error{"run frame lengths disagree"};
  }
  out.scenario.resize(scenario_len);
  body.read(out.scenario.data(), scenario_len);
  out.netlist.resize(netlist_len);
  body.read(out.netlist.data(), netlist_len);
  // The zero-copy read: payload words land directly in the vector that
  // submit_packed adopts, which the kernel then evaluates in place.
  out.payload.resize(body.remaining() / sizeof(std::uint64_t));
  body.read(out.payload.data(), body.remaining());
  swap_words(out.payload);
}

/// Register body after the kind byte.
void decode_register(frame_body& body, register_request& out) {
  std::uint8_t fixed[register_fixed_bytes - 1];
  byte_reader r = body.header(fixed, sizeof fixed, "register frame too short");
  out.id = r.u64();
  const std::uint32_t netlist_len = r.u32();
  if (netlist_len != body.remaining()) {
    throw protocol_error{"register frame lengths disagree"};
  }
  out.netlist.resize(netlist_len);
  body.read(out.netlist.data(), netlist_len);
}

/// Response body, kind byte included.
wire_response decode_response(frame_body& body) {
  std::uint8_t fixed[response_fixed_bytes];
  byte_reader r = body.header(fixed, sizeof fixed, "wire: response frame too short");
  if (r.u8() != static_cast<std::uint8_t>(frame_kind::response)) {
    throw protocol_error{"wire: not a response frame"};
  }
  wire_response out;
  out.id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(wire_status::watchdog_expired)) {
    throw protocol_error{"wire: unknown response status"};
  }
  out.status = static_cast<wire_status>(status);
  if (out.status != wire_status::ok) {
    std::uint8_t len[4];
    byte_reader m = body.header(len, sizeof len, "wire: error response lengths disagree");
    const std::uint32_t message_len = m.u32();
    if (message_len != body.remaining()) {
      throw protocol_error{"wire: error response lengths disagree"};
    }
    out.message.resize(message_len);
    body.read(out.message.data(), message_len);
    return out;
  }
  if (body.remaining() < response_ok_extra_bytes ||
      (body.remaining() - response_ok_extra_bytes) % sizeof(std::uint64_t) != 0) {
    throw protocol_error{"wire: ok response lengths disagree"};
  }
  std::uint8_t extra[response_ok_extra_bytes];
  byte_reader e = body.header(extra, sizeof extra, "wire: ok response lengths disagree");
  out.fingerprint = e.u64();
  out.result.num_waves = static_cast<std::size_t>(e.u64());
  out.result.num_pos = e.u32();
  out.result.ticks = e.u64();
  out.result.latency_ticks = e.u32();
  out.result.initiation_interval = e.u32();
  out.result.waves_in_flight = e.u32();
  // Result planes land directly in the packed_wave_result's own vector —
  // the client-side half of the zero-copy story.
  out.result.words.resize(body.remaining() / sizeof(std::uint64_t));
  body.read(out.result.words.data(), body.remaining());
  swap_words(out.result.words);
  check_result_shape(out.result);
  return out;
}

void expect_kind(frame_body& body, frame_kind kind, const char* otherwise) {
  std::uint8_t got = 0;
  body.read(&got, 1);
  if (got != static_cast<std::uint8_t>(kind)) {
    throw protocol_error{otherwise};
  }
}

}  // namespace

std::size_t decode_run_body(const std::uint8_t* body, std::size_t size, run_request& out) {
  frame_body src{body, size};
  expect_kind(src, frame_kind::run, "wire: not a run frame");
  decode_run(src, out);
  return size - out.payload.size() * sizeof(std::uint64_t);
}

register_request decode_register_body(const std::uint8_t* body, std::size_t size) {
  frame_body src{body, size};
  expect_kind(src, frame_kind::register_program, "wire: not a register frame");
  register_request out;
  decode_register(src, out);
  return out;
}

wire_response decode_response_body(const std::uint8_t* body, std::size_t size) {
  frame_body src{body, size};
  return decode_response(src);
}

request_frame read_request_frame(tcp_socket& sock, std::size_t max_body_bytes) {
  std::uint8_t len[4];
  if (!sock.read_exact(len, sizeof len)) {
    throw socket_error{"wire: connection closed"};
  }
  const std::uint32_t body_len = byte_reader{len, sizeof len}.u32();
  if (body_len == 0 || body_len > max_body_bytes) {
    // We refuse to read that much, so the stream cannot be resynchronized.
    throw frame_error{"frame length out of bounds", 0, false};
  }
  frame_body body{sock, body_len};
  std::uint8_t kind = 0;
  body.read(&kind, 1);
  request_frame frame;
  try {
    if (kind == static_cast<std::uint8_t>(frame_kind::run)) {
      decode_run(body, frame.emplace<run_request>());
    } else if (kind == static_cast<std::uint8_t>(frame_kind::register_program)) {
      decode_register(body, frame.emplace<register_request>());
    } else {
      throw protocol_error{"unknown frame kind"};
    }
  } catch (const protocol_error& e) {
    // The decoders check every length before reading a variable part, and
    // the frame is length-delimited: skip its rest to stay in sync.
    body.skip_rest();
    throw frame_error{e.what(), std::visit([](const auto& req) { return req.id; }, frame), true};
  }
  return frame;
}

wire_response read_response(tcp_socket& sock) {
  std::uint8_t len[4];
  if (!sock.read_exact(len, sizeof len)) {
    throw socket_error{"wire: connection closed"};
  }
  const std::uint32_t body_len = byte_reader{len, sizeof len}.u32();
  if (body_len > max_response_bytes) {
    throw protocol_error{"wire: response length out of bounds"};
  }
  frame_body body{sock, body_len};
  return decode_response(body);
}

void check_result_shape(const engine::packed_wave_result& result) {
  const std::size_t chunks = result.num_waves / 64 + (result.num_waves % 64 != 0 ? 1 : 0);
  const std::size_t words = result.words.size();
  const bool size_matches = result.num_pos == 0
                                ? words == 0
                                : words % result.num_pos == 0 && words / result.num_pos == chunks;
  if (!size_matches) {
    throw protocol_error{"wire: result words disagree with num_pos x ceil(num_waves / 64)"};
  }
  if (const std::size_t live = result.num_waves % 64; live != 0) {
    const std::uint64_t above = ~((std::uint64_t{1} << live) - 1);
    for (std::size_t p = 0; p < result.num_pos; ++p) {
      if ((result.words[p * chunks + chunks - 1] & above) != 0) {
        throw protocol_error{"wire: stray result bits above num_waves"};
      }
    }
  }
}

}  // namespace wavemig::net
