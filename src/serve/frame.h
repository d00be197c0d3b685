// Length-prefixed binary frame codec for `gcon_cli serve` — the fast
// transport next to the newline-JSON one (serve/wire.h). JSON stays the
// admin/debug format (its admin verbs answer the same JSON documents over
// either transport); binary exists so feature-carrying (inductive) queries
// stop paying a text codec per feature: the payload ships little-endian
// f32 features, which the parser decodes like every other field — a fixed
// 4-byte load each, widened exactly to f64, with no strtod.
//
// Transport negotiation is one byte deep: a binary client's very first
// byte is kFramePreamble (0xC0), which no JSON line can start with, so
// the server sniffs byte one and picks the codec per connection.
//
//   client -> [C0 'G' 'C' 'O' 'N' 'B' ver_lo ver_hi]      (hello, 8 bytes)
//   server -> [C0 'G' 'C' 'O' 'N' 'B' ver_lo ver_hi]      (negotiated ack)
//   client -> frame*                                       (pipelined)
//   server -> one response/error frame per request frame, order preserved;
//             admin frames answer a kAdminReply (or error) frame
//
// The negotiated version is min(client, kFrameVersion); a client hello
// carrying version 0 (or a bad magic) gets an error frame and a
// disconnect. Every frame after the hello is
//
//   [u32 payload_len (LE)] [u8 type] [payload_len bytes]
//
// with payload_len capped at kMaxFrameBytes (== kMaxWireLineBytes — the
// two transports share one framing bound). Multi-byte integers and floats
// are little-endian; offsets below are into the payload. Declared counts
// must consume the payload exactly — a frame with slack or truncated
// arrays is rejected with a structured `malformed_frame` error whose id
// field echoes the request id whenever the payload reached offset 8.
//
// Request (type 0x10) — header 36 bytes, then the arrays:
//   off  0  i64  id
//   off  8  i64  deadline_us        (0 = none; negative rejected)
//   off 16  i32  node               (-1 = absent; < -1 rejected)
//   off 20  u32  flags              (bit0 = has_edges, bit1 = has_features)
//   off 24  u32  edge_count         (0 unless bit0)
//   off 28  u32  feature_dim        (0 unless bit1)
//   off 32  u32  model_len          (0 = default model)
//   off 36  i32  edges[edge_count]
//   then    f32  features[feature_dim]   (finite; NaN/inf rejected)
//   then    char model[model_len]        (name bytes, last)
//
// Response (type 0x11) — header 24 bytes, logits 8-byte aligned:
//   off  0  i64  id
//   off  8  i32  node               (-1 for feature-carrying queries)
//   off 12  i32  label
//   off 16  u32  num_logits
//   off 20  u32  reserved           (zero)
//   off 24  f64  logits[num_logits]
// Logits are f64 bit patterns: a binary response is memcmp-identical to
// the offline `predict` row, exactly like the JSON transport's 17-digit
// round-trip (only *request* features are f32 — the quantization a client
// opts into by choosing the binary transport is applied before the
// encoder, identically to a JSON client sending the same widened values).
//
// Error (type 0x12):
//   off  0  i64  id                 (0 when no request id was recoverable)
//   off  8  u32  code               (WireErrorCode encoding, below)
//   off 12  u32  message_len
//   off 16  char message[message_len]
//
// Admin (type 0x20) and its reply (type 0x21):
//   admin:  off 0 u32 verb; off 4 u32 model_len; off 8 u32 path_len;
//           then model bytes, then path bytes
//   reply:  the whole payload is the same JSON document the newline
//           transport answers (stats / list_models / publish / drain) —
//           admin stays JSON-bodied on purpose; it is the debug surface.
//
// ServeErrorCode binary encodings (wire-stable, locked by the binary
// conformance goldens): 0 = uncoded (prose-only rejection, e.g. unknown
// model), 1 = overloaded, 2 = deadline_exceeded, 3 = draining,
// 4 = malformed_frame, 5 = budget_exhausted.
#ifndef GCON_SERVE_FRAME_H_
#define GCON_SERVE_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/inference_session.h"
#include "serve/serve_error.h"
#include "serve/wire.h"

namespace gcon {

/// First byte of a binary connection (and of every hello). 0xC0 is not
/// printable ASCII and cannot begin a JSON wire line, so one peeked byte
/// decides the transport.
inline constexpr unsigned char kFramePreamble = 0xC0;

/// Magic after the preamble byte: "GCONB".
inline constexpr char kFrameMagic[5] = {'G', 'C', 'O', 'N', 'B'};

/// Highest protocol version this build speaks. Negotiation is
/// min(client, server); version 0 is invalid.
inline constexpr std::uint16_t kFrameVersion = 1;

/// Hello message size (preamble + magic + u16 version), both directions.
inline constexpr std::size_t kFrameHelloBytes = 8;

/// Frame header size (u32 payload_len + u8 type).
inline constexpr std::size_t kFrameHeaderBytes = 5;

/// Hard cap on one frame payload — the same bound as a JSON wire line, so
/// neither transport lets a client that lost framing pin server memory.
inline constexpr std::size_t kMaxFrameBytes = kMaxWireLineBytes;

/// Frame types (the u8 after the length prefix).
enum class FrameType : std::uint8_t {
  kRequest = 0x10,     ///< client -> server: one ServeRequest
  kResponse = 0x11,    ///< server -> client: one ServeResponse
  kError = 0x12,       ///< server -> client: a rejection (coded)
  kAdmin = 0x20,       ///< client -> server: stats/list_models/publish/…
  kAdminReply = 0x21,  ///< server -> client: the admin verb's JSON body
};

/// Admin verbs a kAdmin frame can carry (the binary spelling of the JSON
/// "cmd" vocabulary).
enum class AdminVerb : std::uint32_t {
  kStats = 1,
  kListModels = 2,
  kQuit = 3,
  kPublish = 4,  ///< model = target name (may be empty), path = artifact
  kDrain = 5,
  kMetrics = 6,  ///< reply payload is Prometheus text, not JSON
  kTrace = 7,    ///< last sampled span timelines as one JSON document
  kBudget = 8,   ///< per-model DP budget totals/caps (the "budget" cmd)
};

/// A decoded error frame (client-side decoding; servers encode).
struct FrameError {
  std::int64_t id = 0;
  std::uint32_t code = 0;  ///< WireErrorCode encoding; 0 = uncoded
  std::string message;
};

/// The wire-stable binary encoding of a ServeErrorCode (see file comment).
std::uint32_t WireErrorCode(ServeErrorCode code);

/// Hello bytes for `version` (either direction).
std::string EncodeHello(std::uint16_t version);

/// Validates a hello (preamble + magic) and extracts the peer's version.
/// Returns false with *error set on a malformed hello; a version of 0 is
/// reported as malformed here so callers reject it uniformly.
bool ParseHello(const char* bytes, std::size_t len, std::uint16_t* version,
                std::string* error);

/// Validates a frame header: known type, payload_len <= kMaxFrameBytes.
/// `bytes` must hold kFrameHeaderBytes.
bool ParseFrameHeader(const char* bytes, FrameType* type,
                      std::uint32_t* payload_len, std::string* error);

/// Encodes a complete request frame (header + payload) from a request
/// whose features, if any, live in the owning `features` vector — doubles
/// are narrowed to f32 for the wire, which is the binary transport's
/// contract. Client-side (tests, bench, external clients).
std::string EncodeRequestFrame(const ServeRequest& request);

/// Decodes a request payload into an owning ServeRequest: f32 features
/// widen exactly into ServeRequest::features, and a non-finite one is
/// rejected with its index named. `payload` needs no alignment; nothing
/// returned points into it. On failure returns false with *error set and
/// request->id carrying the id whenever the payload reached offset 8 —
/// structured error correlation, the binary analogue of RecoverWireId.
bool ParseRequestPayload(const char* payload, std::size_t len,
                         ServeRequest* request, std::string* error);

/// Encodes a complete response frame (header + payload).
std::string EncodeResponseFrame(const ServeResponse& response);

/// Decodes a response payload (client-side).
bool ParseResponsePayload(const char* payload, std::size_t len,
                          ServeResponse* response, std::string* error);

/// Encodes a complete error frame; `code` is a WireErrorCode encoding.
std::string EncodeErrorFrame(std::int64_t id, std::uint32_t code,
                             const std::string& message);

/// Decodes an error payload (client-side).
bool ParseErrorPayload(const char* payload, std::size_t len, FrameError* out,
                       std::string* error);

/// Encodes a complete admin frame.
std::string EncodeAdminFrame(AdminVerb verb, const std::string& model = "",
                             const std::string& path = "");

/// Decodes an admin payload.
bool ParseAdminPayload(const char* payload, std::size_t len, AdminVerb* verb,
                       std::string* model, std::string* path,
                       std::string* error);

/// Encodes a complete admin-reply frame wrapping a JSON document.
std::string EncodeAdminReplyFrame(const std::string& json);

}  // namespace gcon

#endif  // GCON_SERVE_FRAME_H_
