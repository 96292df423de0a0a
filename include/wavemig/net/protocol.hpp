#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "wavemig/engine/wave_engine.hpp"

namespace wavemig::net {

class tcp_socket;

/// @name Wire protocol
///
/// A little length-prefixed binary protocol whose run-request payload *is*
/// the engine's plane-major packed-wave layout (PR-5): `num_pis` planes of
/// ceil(num_waves / 64) chunk words each, wave w at bit w % 64 of word
/// w / 64. A request therefore deserializes straight into
/// `serving_session::submit_packed` with zero packing, transposing, or
/// copying — and result planes ship back the same way.
///
/// Everything on the wire is little-endian (the native layout of every
/// deployment target; big-endian hosts byteswap payload words as the codec
/// reads and writes them).
///
/// Connection handshake: each side sends `wire_magic` then `wire_version`
/// (8 bytes) before any frame; a mismatch closes the connection.
///
/// This module is the wire codec: every frame field, length prefix and the
/// preamble are read and written here and nowhere else. Each frame kind has
/// one decoder, which reads from a byte span (`decode_*_body`) or straight
/// off a connected socket (`read_request_frame`, `read_response`); both
/// forms apply the same length checks and produce the same values.
///
/// Frames are `u32 body_length` + body; `body[0]` is the `frame_kind`.
///
/// Run request (kind 1), 45-byte fixed header then variable parts:
///   u8  kind            u64 id              u8  priority (lower = sooner)
///   u8  flags           u16 scenario_len    u32 deadline_ms (0 = none)
///   u32 phases          u32 num_pis         u32 netlist_len
///   u64 fingerprint     u64 num_waves
///   scenario_len bytes  scenario name (empty = untagged)
///   netlist_len bytes   inline `.mig` netlist (empty = lookup fingerprint)
///   rest                plane-major payload words (a multiple of 8 bytes)
/// `num_pis` must equal the program's PI count; the server answers
/// `invalid_request` otherwise, before anything is submitted.
///
/// Register (kind 3): u8 kind, u64 id, u32 netlist_len, netlist bytes. The
/// response echoes the computed fingerprint, so subsequent runs can send
/// the 8-byte fingerprint instead of the netlist text.
///
/// Response (kind 2): u8 kind, u64 id, u8 status; then on `ok`
///   u64 fingerprint   u64 num_waves   u32 num_pos   u64 ticks
///   u32 latency_ticks u32 initiation_interval       u32 waves_in_flight
///   plane-major result words (num_pos planes);
/// on any other status: u32 message_len + message bytes.
/// @{

inline constexpr std::uint32_t wire_magic = 0x31474D57u;  ///< "WMG1" on the wire
inline constexpr std::uint32_t wire_version = 1;

enum class frame_kind : std::uint8_t {
  run = 1,
  response = 2,
  register_program = 3,
};

/// Status taxonomy of a response — the wire image of the serving layer's
/// typed errors (engine/serving.hpp) plus the framing-level failures only
/// the front-end can see.
enum class wire_status : std::uint8_t {
  ok = 0,
  malformed_frame = 1,     ///< undecodable bytes: bad lengths, unknown kind
  invalid_request = 2,     ///< decoded but invalid: shape/validation errors
  unknown_program = 3,     ///< fingerprint not registered, no inline netlist
  unknown_scenario = 4,    ///< scenario name not in the registry
  admission_rejected = 5,  ///< backlog at the admission bound; never queued
  draining = 6,            ///< server is draining; request refused
  deadline_expired = 7,    ///< deadline passed before dispatch
  internal_error = 8,
  /// The server's watchdog failed the request: it exceeded the hard
  /// wall-clock bound (server_options::watchdog_bound) without completing,
  /// so the server answered for it and released its connection slot. The
  /// request may still finish internally — its late result is discarded.
  /// New in protocol revision 9; older clients reject it as an unknown
  /// status, which closes the connection (see README "Resilience").
  watchdog_expired = 9,
};

[[nodiscard]] const char* to_string(wire_status status);

/// Run request flag: ask the server to mask stray bits above `num_waves`
/// (the trusted in-process default) instead of rejecting the request.
inline constexpr std::uint8_t run_flag_mask_tail_bits = 0x01;

/// Thrown by decoders on structurally invalid bytes (truncated header,
/// lengths that disagree, unknown kind). The server answers with
/// `wire_status::malformed_frame`; the client surfaces it to the caller.
class protocol_error : public std::runtime_error {
public:
  explicit protocol_error(const std::string& what) : std::runtime_error{what} {}
};

/// A request frame `read_request_frame` refused. `id()` is the frame's id
/// once its fixed header was read, else 0. `in_sync()` says whether the
/// rest of the frame was skipped; a length prefix of 0 or above the
/// server's bound cannot be.
class frame_error : public protocol_error {
public:
  frame_error(const std::string& what, std::uint64_t id, bool in_sync)
      : protocol_error{what}, id_{id}, in_sync_{in_sync} {}
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] bool in_sync() const { return in_sync_; }

private:
  std::uint64_t id_;
  bool in_sync_;
};

/// One run over the wire. `payload` is plane-major words exactly as
/// `wave_batch::from_plane_words` adopts them.
struct run_request {
  std::uint64_t id{0};
  std::uint8_t priority{128};
  std::uint8_t flags{0};
  std::uint32_t deadline_ms{0};  ///< relative to server receipt; 0 = none
  std::uint32_t phases{1};
  std::uint32_t num_pis{0};
  std::uint64_t fingerprint{0};  ///< ignored when `netlist` is non-empty
  std::uint64_t num_waves{0};
  std::string scenario;  ///< registry name; empty = untagged
  std::string netlist;   ///< inline `.mig` text; empty = use `fingerprint`
  std::vector<std::uint64_t> payload;
};

struct register_request {
  std::uint64_t id{0};
  std::string netlist;  ///< `.mig` text of the program to register
};

/// A decoded response. On `ok`, `result` carries the packed output planes
/// and clock metrics; otherwise `message` explains the status.
struct wire_response {
  std::uint64_t id{0};
  wire_status status{wire_status::ok};
  std::string message;
  std::uint64_t fingerprint{0};
  engine::packed_wave_result result;
};

/// Byte sizes of the fixed (pre-variable-part) encodings, kind byte
/// included. Decoders bound-check against these before touching fields.
inline constexpr std::size_t run_fixed_bytes = 45;
inline constexpr std::size_t register_fixed_bytes = 13;
inline constexpr std::size_t response_fixed_bytes = 10;
inline constexpr std::size_t response_ok_extra_bytes = 40;

/// Appends little-endian scalars to a byte buffer (the encode direction).
/// Scalars are swapped to wire order on big-endian hosts; `bytes` is
/// order-preserving.
class byte_writer {
public:
  explicit byte_writer(std::vector<std::uint8_t>& out) : out_{out} {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(const void* data, std::size_t n) { raw(data, n); }

private:
  void raw(const void* data, std::size_t n);

  std::vector<std::uint8_t>& out_;
};

/// Reads little-endian scalars off a byte span, throwing protocol_error on
/// underrun (the decode direction).
class byte_reader {
public:
  byte_reader(const std::uint8_t* data, std::size_t size) : data_{data}, size_{size} {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint16_t u16() { return scalar<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return scalar<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return scalar<std::uint64_t>(); }

private:
  template <typename T>
  [[nodiscard]] T scalar() {
    T v;
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return from_wire(v);
  }
  const std::uint8_t* take(std::size_t n);
  static std::uint16_t from_wire(std::uint16_t v);
  static std::uint32_t from_wire(std::uint32_t v);
  static std::uint64_t from_wire(std::uint64_t v);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t at_{0};
};

/// Frame prefix of a run request: the u32 length word plus the body up to
/// (exclusive) the payload words, which `write_frame` sends after it.
[[nodiscard]] std::vector<std::uint8_t> encode_run_frame_prefix(const run_request& req);

/// The complete register frame (length word included).
[[nodiscard]] std::vector<std::uint8_t> encode_register_frame(const register_request& req);

/// Frame prefix of a response (length word included). An `ok` response's
/// `result.words` follow it; an error response's prefix is the whole frame.
[[nodiscard]] std::vector<std::uint8_t> encode_response_frame_prefix(const wire_response& resp);

/// Writes the 8-byte preamble; `read_preamble` is true when the peer's
/// matches it and throws socket_error when the peer closes first.
void write_preamble(tcp_socket& sock);
[[nodiscard]] bool read_preamble(tcp_socket& sock);

/// Writes an encoded prefix, then `words` in wire order (a run payload or
/// result planes). On little-endian hosts the words go out without a copy.
void write_frame(tcp_socket& sock, std::span<const std::uint8_t> prefix,
                 std::span<const std::uint64_t> words);

/// The span forms of the decoders: each decodes a whole body, kind byte
/// included, and throws protocol_error when a length disagrees with `size`
/// (or, for runs, the payload is not a whole number of words).
/// `decode_run_body` fills the payload too and returns its byte offset; an
/// ok response must pass check_result_shape.
[[nodiscard]] std::size_t decode_run_body(const std::uint8_t* body, std::size_t size,
                                          run_request& out);
[[nodiscard]] register_request decode_register_body(const std::uint8_t* body, std::size_t size);
[[nodiscard]] wire_response decode_response_body(const std::uint8_t* body, std::size_t size);

using request_frame = std::variant<run_request, register_request>;

/// The socket forms: the same decoders read one frame off `sock`, each
/// fixed header with one read_exact and each variable part straight into
/// its final container (a run payload into the vector `submit_packed`
/// adopts, result words into `result.words`). Both throw socket_error when
/// the peer closes. `read_request_frame` throws frame_error on a frame it
/// refuses; `read_response` throws protocol_error, after which the stream
/// is in sync only if check_result_shape refused (the frame was read whole).
[[nodiscard]] request_frame read_request_frame(tcp_socket& sock, std::size_t max_body_bytes);
[[nodiscard]] wire_response read_response(tcp_socket& sock);

/// Throws protocol_error unless a decoded ok result holds exactly `num_pos`
/// planes of ceil(num_waves / 64) words with no bit set above `num_waves`:
/// the response-side counterpart of the request checks in
/// `wave_batch::from_plane_words` (tail_bits::reject). The response decoder
/// runs it, so `output()`, `plane()` and `unpack()` never read past the
/// words. The check divides instead of multiplying, so a hostile
/// `num_waves` cannot wrap it into accepting a short payload.
void check_result_shape(const engine::packed_wave_result& result);

/// @}

}  // namespace wavemig::net
