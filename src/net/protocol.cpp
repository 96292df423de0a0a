#include "wavemig/net/protocol.hpp"

#include <bit>
#include <limits>

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

void words_to_wire(std::uint64_t* words, std::size_t count) {
  if constexpr (std::endian::native != std::endian::little) {
    for (std::size_t i = 0; i < count; ++i) {
      words[i] = byteswap_integral(words[i]);
    }
  } else {
    (void)words;
    (void)count;
  }
}

namespace {

void put_u16(byte_writer& w, std::uint16_t v) { w.u16(v); }
void put_u32(byte_writer& w, std::uint32_t v) { w.u32(v); }
void put_u64(byte_writer& w, std::uint64_t v) { w.u64(v); }

}  // namespace

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
  put_u32(w, static_cast<std::uint32_t>(body));
  w.u8(static_cast<std::uint8_t>(frame_kind::run));
  put_u64(w, req.id);
  w.u8(req.priority);
  w.u8(req.flags);
  put_u16(w, static_cast<std::uint16_t>(req.scenario.size()));
  put_u32(w, req.deadline_ms);
  put_u32(w, req.phases);
  put_u32(w, req.num_pis);
  put_u32(w, static_cast<std::uint32_t>(req.netlist.size()));
  put_u64(w, req.fingerprint);
  put_u64(w, req.num_waves);
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
  put_u32(w, static_cast<std::uint32_t>(body));
  w.u8(static_cast<std::uint8_t>(frame_kind::register_program));
  put_u64(w, req.id);
  put_u32(w, static_cast<std::uint32_t>(req.netlist.size()));
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
    put_u32(w, static_cast<std::uint32_t>(body));
    w.u8(static_cast<std::uint8_t>(frame_kind::response));
    put_u64(w, resp.id);
    w.u8(static_cast<std::uint8_t>(resp.status));
    put_u64(w, resp.fingerprint);
    put_u64(w, static_cast<std::uint64_t>(resp.result.num_waves));
    put_u32(w, static_cast<std::uint32_t>(resp.result.num_pos));
    put_u64(w, resp.result.ticks);
    put_u32(w, resp.result.latency_ticks);
    put_u32(w, resp.result.initiation_interval);
    put_u32(w, resp.result.waves_in_flight);
  } else {
    const std::size_t body = response_fixed_bytes + 4 + resp.message.size();
    if (body > std::numeric_limits<std::uint32_t>::max()) {
      throw protocol_error{"wire: response exceeds the u32 length prefix"};
    }
    out.reserve(4 + body);
    put_u32(w, static_cast<std::uint32_t>(body));
    w.u8(static_cast<std::uint8_t>(frame_kind::response));
    put_u64(w, resp.id);
    w.u8(static_cast<std::uint8_t>(resp.status));
    put_u32(w, static_cast<std::uint32_t>(resp.message.size()));
    w.bytes(resp.message.data(), resp.message.size());
  }
  return out;
}

std::size_t decode_run_body(const std::uint8_t* body, std::size_t size, run_request& out) {
  byte_reader r{body, size};
  if (r.u8() != static_cast<std::uint8_t>(frame_kind::run)) {
    throw protocol_error{"wire: not a run frame"};
  }
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
  out.scenario = r.str(scenario_len);
  out.netlist = r.str(netlist_len);
  if (r.remaining() % sizeof(std::uint64_t) != 0) {
    throw protocol_error{"wire: payload is not a whole number of words"};
  }
  return size - r.remaining();
}

register_request decode_register_body(const std::uint8_t* body, std::size_t size) {
  byte_reader r{body, size};
  if (r.u8() != static_cast<std::uint8_t>(frame_kind::register_program)) {
    throw protocol_error{"wire: not a register frame"};
  }
  register_request out;
  out.id = r.u64();
  const std::uint32_t netlist_len = r.u32();
  out.netlist = r.str(netlist_len);
  if (r.remaining() != 0) {
    throw protocol_error{"wire: trailing bytes after register frame"};
  }
  return out;
}

wire_response decode_response_body(const std::uint8_t* body, std::size_t size) {
  byte_reader r{body, size};
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
  if (out.status == wire_status::ok) {
    out.fingerprint = r.u64();
    out.result.num_waves = static_cast<std::size_t>(r.u64());
    out.result.num_pos = r.u32();
    out.result.ticks = r.u64();
    out.result.latency_ticks = r.u32();
    out.result.initiation_interval = r.u32();
    out.result.waves_in_flight = r.u32();
    if (r.remaining() % sizeof(std::uint64_t) != 0) {
      throw protocol_error{"wire: result payload is not a whole number of words"};
    }
    const std::size_t words = r.remaining() / sizeof(std::uint64_t);
    out.result.words.resize(words);
    if (words > 0) {  // an empty vector's data() is null — memcpy forbids it
      const std::string raw = r.str(words * sizeof(std::uint64_t));
      std::memcpy(out.result.words.data(), raw.data(), raw.size());
      words_from_wire(out.result.words.data(), words);
    }
    check_result_shape(out.result);
  } else {
    const std::uint32_t message_len = r.u32();
    out.message = r.str(message_len);
    if (r.remaining() != 0) {
      throw protocol_error{"wire: trailing bytes after error response"};
    }
  }
  return out;
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
