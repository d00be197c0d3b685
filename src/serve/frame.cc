#include "serve/frame.h"

#include <cmath>
#include <cstring>

namespace gcon {
namespace {

void PutU16(std::string* out, std::uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutI32(std::string* out, std::int32_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
}

void PutI64(std::string* out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}

void PutF32(std::string* out, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(out, bits);
}

void PutF64(std::string* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

std::uint16_t GetU16(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(u[0] | (u[1] << 8));
}

std::uint32_t GetU32(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(u[0]) |
         (static_cast<std::uint32_t>(u[1]) << 8) |
         (static_cast<std::uint32_t>(u[2]) << 16) |
         (static_cast<std::uint32_t>(u[3]) << 24);
}

std::uint64_t GetU64(const char* p) {
  return static_cast<std::uint64_t>(GetU32(p)) |
         (static_cast<std::uint64_t>(GetU32(p + 4)) << 32);
}

std::int32_t GetI32(const char* p) {
  return static_cast<std::int32_t>(GetU32(p));
}

std::int64_t GetI64(const char* p) {
  return static_cast<std::int64_t>(GetU64(p));
}

float GetF32(const char* p) {
  const std::uint32_t bits = GetU32(p);
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double GetF64(const char* p) {
  const std::uint64_t bits = GetU64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Prepends the [u32 len][u8 type] header once the payload is built.
std::string WrapFrame(FrameType type, const std::string& payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<std::uint32_t>(payload.size()));
  frame.push_back(static_cast<char>(type));
  frame += payload;
  return frame;
}

constexpr std::size_t kRequestHeaderBytes = 36;
constexpr std::size_t kResponseHeaderBytes = 24;
constexpr std::size_t kErrorHeaderBytes = 16;
constexpr std::size_t kAdminHeaderBytes = 12;

constexpr std::uint32_t kFlagHasEdges = 1u << 0;
constexpr std::uint32_t kFlagHasFeatures = 1u << 1;

}  // namespace

std::uint32_t WireErrorCode(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kOverloaded:
      return 1;
    case ServeErrorCode::kDeadlineExceeded:
      return 2;
    case ServeErrorCode::kDraining:
      return 3;
    case ServeErrorCode::kMalformedFrame:
      return 4;
    case ServeErrorCode::kBudgetExhausted:
      return 5;
  }
  return 0;
}

std::string EncodeHello(std::uint16_t version) {
  std::string hello;
  hello.reserve(kFrameHelloBytes);
  hello.push_back(static_cast<char>(kFramePreamble));
  hello.append(kFrameMagic, sizeof(kFrameMagic));
  PutU16(&hello, version);
  return hello;
}

bool ParseHello(const char* bytes, std::size_t len, std::uint16_t* version,
                std::string* error) {
  if (len < kFrameHelloBytes) {
    *error = "truncated hello (want " + std::to_string(kFrameHelloBytes) +
             " bytes, got " + std::to_string(len) + ")";
    return false;
  }
  if (static_cast<unsigned char>(bytes[0]) != kFramePreamble ||
      std::memcmp(bytes + 1, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    *error = "bad hello magic (want C0 'GCONB')";
    return false;
  }
  *version = GetU16(bytes + 6);
  if (*version == 0) {
    *error = "unsupported protocol version 0 (this server speaks " +
             std::to_string(kFrameVersion) + ")";
    return false;
  }
  return true;
}

bool ParseFrameHeader(const char* bytes, FrameType* type,
                      std::uint32_t* payload_len, std::string* error) {
  *payload_len = GetU32(bytes);
  const std::uint8_t raw_type = static_cast<std::uint8_t>(bytes[4]);
  if (*payload_len > kMaxFrameBytes) {
    *error = "oversized frame (declared " + std::to_string(*payload_len) +
             " bytes, limit " + std::to_string(kMaxFrameBytes) + ")";
    return false;
  }
  switch (raw_type) {
    case static_cast<std::uint8_t>(FrameType::kRequest):
    case static_cast<std::uint8_t>(FrameType::kResponse):
    case static_cast<std::uint8_t>(FrameType::kError):
    case static_cast<std::uint8_t>(FrameType::kAdmin):
    case static_cast<std::uint8_t>(FrameType::kAdminReply):
      *type = static_cast<FrameType>(raw_type);
      return true;
    default:
      *error = "unknown frame type 0x" + [raw_type] {
        const char digits[] = "0123456789abcdef";
        std::string hex;
        hex.push_back(digits[(raw_type >> 4) & 0xF]);
        hex.push_back(digits[raw_type & 0xF]);
        return hex;
      }();
      return false;
  }
}

std::string EncodeRequestFrame(const ServeRequest& request) {
  std::string payload;
  payload.reserve(kRequestHeaderBytes + 4 * request.edges.size() +
                  4 * request.features.size() + request.model.size());
  PutI64(&payload, request.id);
  PutI64(&payload, request.deadline_us);
  PutI32(&payload, request.node);
  std::uint32_t flags = 0;
  if (request.has_edges) flags |= kFlagHasEdges;
  if (request.has_features) flags |= kFlagHasFeatures;
  PutU32(&payload, flags);
  PutU32(&payload, request.has_edges
                       ? static_cast<std::uint32_t>(request.edges.size())
                       : 0u);
  PutU32(&payload, request.has_features
                       ? static_cast<std::uint32_t>(request.features.size())
                       : 0u);
  PutU32(&payload, static_cast<std::uint32_t>(request.model.size()));
  if (request.has_edges) {
    for (int e : request.edges) PutI32(&payload, e);
  }
  if (request.has_features) {
    // The binary transport is f32: doubles narrow here, on the client —
    // a server-side parse never rounds.
    for (double v : request.features) PutF32(&payload, static_cast<float>(v));
  }
  payload += request.model;
  return WrapFrame(FrameType::kRequest, payload);
}

bool ParseRequestPayload(const char* payload, std::size_t len,
                         ServeRequest* request, std::string* error) {
  *request = ServeRequest{};
  if (len >= 8) request->id = GetI64(payload);  // best-effort correlation
  if (len < kRequestHeaderBytes) {
    *error = "truncated request frame (want at least " +
             std::to_string(kRequestHeaderBytes) + " payload bytes, got " +
             std::to_string(len) + ")";
    return false;
  }
  request->deadline_us = GetI64(payload + 8);
  const std::int32_t node = GetI32(payload + 16);
  const std::uint32_t flags = GetU32(payload + 20);
  const std::uint32_t edge_count = GetU32(payload + 24);
  const std::uint32_t feature_dim = GetU32(payload + 28);
  const std::uint32_t model_len = GetU32(payload + 32);

  if (request->deadline_us < 0) {
    *error = "deadline_us wants a non-negative value (0 = none)";
    return false;
  }
  if (node < -1) {
    *error = "node wants -1 (absent) or a non-negative index";
    return false;
  }
  if ((flags & ~(kFlagHasEdges | kFlagHasFeatures)) != 0) {
    *error = "unknown request flags set";
    return false;
  }
  const bool has_edges = (flags & kFlagHasEdges) != 0;
  const bool has_features = (flags & kFlagHasFeatures) != 0;
  if (!has_edges && edge_count != 0) {
    *error = "edge_count must be 0 without the has_edges flag";
    return false;
  }
  if (!has_features && feature_dim != 0) {
    *error = "feature_dim must be 0 without the has_features flag";
    return false;
  }
  if (node == -1 && !has_features) {
    *error = "request frame carries neither a node nor features";
    return false;
  }
  if (node != -1 && has_features) {
    *error = "a query carries either 'node' or 'features', not both";
    return false;
  }
  // Declared counts must consume the payload exactly; u64 arithmetic so a
  // hostile count cannot wrap the bound check.
  const std::uint64_t want = static_cast<std::uint64_t>(kRequestHeaderBytes) +
                             4ull * edge_count + 4ull * feature_dim +
                             model_len;
  if (want != len) {
    *error = "request frame size mismatch (declared dims need " +
             std::to_string(want) + " payload bytes, frame has " +
             std::to_string(len) + ")";
    return false;
  }

  request->node = node;
  request->has_edges = has_edges;
  request->has_features = has_features;
  const char* cursor = payload + kRequestHeaderBytes;
  if (has_edges) {
    request->edges.resize(edge_count);
    for (std::uint32_t i = 0; i < edge_count; ++i, cursor += 4) {
      request->edges[i] = GetI32(cursor);
    }
  }
  if (has_features) {
    // f32 -> f64 is exact, so a server-side parse never rounds. A
    // non-finite value is refused, as the JSON transport refuses one.
    request->features.resize(feature_dim);
    for (std::uint32_t j = 0; j < feature_dim; ++j, cursor += 4) {
      const float value = GetF32(cursor);
      if (!std::isfinite(value)) {
        *error = "features[" + std::to_string(j) + "] is not a finite number";
        return false;
      }
      request->features[j] = value;
    }
  }
  request->model.assign(cursor, model_len);
  return true;
}

std::string EncodeResponseFrame(const ServeResponse& response) {
  std::string payload;
  payload.reserve(kResponseHeaderBytes + 8 * response.logits.size());
  PutI64(&payload, response.id);
  PutI32(&payload, response.node);
  PutI32(&payload, response.label);
  PutU32(&payload, static_cast<std::uint32_t>(response.logits.size()));
  PutU32(&payload, 0);  // reserved
  for (double v : response.logits) PutF64(&payload, v);
  return WrapFrame(FrameType::kResponse, payload);
}

bool ParseResponsePayload(const char* payload, std::size_t len,
                          ServeResponse* response, std::string* error) {
  *response = ServeResponse{};
  if (len < kResponseHeaderBytes) {
    *error = "truncated response frame";
    return false;
  }
  response->id = GetI64(payload);
  response->node = GetI32(payload + 8);
  response->label = GetI32(payload + 12);
  const std::uint32_t num_logits = GetU32(payload + 16);
  const std::uint64_t want =
      static_cast<std::uint64_t>(kResponseHeaderBytes) + 8ull * num_logits;
  if (want != len) {
    *error = "response frame size mismatch";
    return false;
  }
  response->logits.resize(num_logits);
  const char* cursor = payload + kResponseHeaderBytes;
  for (std::uint32_t j = 0; j < num_logits; ++j, cursor += 8) {
    response->logits[j] = GetF64(cursor);
  }
  return true;
}

std::string EncodeErrorFrame(std::int64_t id, std::uint32_t code,
                             const std::string& message) {
  std::string payload;
  payload.reserve(kErrorHeaderBytes + message.size());
  PutI64(&payload, id);
  PutU32(&payload, code);
  PutU32(&payload, static_cast<std::uint32_t>(message.size()));
  payload += message;
  return WrapFrame(FrameType::kError, payload);
}

bool ParseErrorPayload(const char* payload, std::size_t len, FrameError* out,
                       std::string* error) {
  *out = FrameError{};
  if (len < kErrorHeaderBytes) {
    *error = "truncated error frame";
    return false;
  }
  out->id = GetI64(payload);
  out->code = GetU32(payload + 8);
  const std::uint32_t message_len = GetU32(payload + 12);
  if (static_cast<std::uint64_t>(kErrorHeaderBytes) + message_len != len) {
    *error = "error frame size mismatch";
    return false;
  }
  out->message.assign(payload + kErrorHeaderBytes, message_len);
  return true;
}

std::string EncodeAdminFrame(AdminVerb verb, const std::string& model,
                             const std::string& path) {
  std::string payload;
  payload.reserve(kAdminHeaderBytes + model.size() + path.size());
  PutU32(&payload, static_cast<std::uint32_t>(verb));
  PutU32(&payload, static_cast<std::uint32_t>(model.size()));
  PutU32(&payload, static_cast<std::uint32_t>(path.size()));
  payload += model;
  payload += path;
  return WrapFrame(FrameType::kAdmin, payload);
}

bool ParseAdminPayload(const char* payload, std::size_t len, AdminVerb* verb,
                       std::string* model, std::string* path,
                       std::string* error) {
  if (len < kAdminHeaderBytes) {
    *error = "truncated admin frame";
    return false;
  }
  const std::uint32_t raw_verb = GetU32(payload);
  const std::uint32_t model_len = GetU32(payload + 4);
  const std::uint32_t path_len = GetU32(payload + 8);
  switch (raw_verb) {
    case static_cast<std::uint32_t>(AdminVerb::kStats):
    case static_cast<std::uint32_t>(AdminVerb::kListModels):
    case static_cast<std::uint32_t>(AdminVerb::kQuit):
    case static_cast<std::uint32_t>(AdminVerb::kPublish):
    case static_cast<std::uint32_t>(AdminVerb::kDrain):
    case static_cast<std::uint32_t>(AdminVerb::kMetrics):
    case static_cast<std::uint32_t>(AdminVerb::kTrace):
    case static_cast<std::uint32_t>(AdminVerb::kBudget):
      *verb = static_cast<AdminVerb>(raw_verb);
      break;
    default:
      *error = "unknown admin verb " + std::to_string(raw_verb) +
               " (want stats=1, list_models=2, quit=3, publish=4, drain=5, "
               "metrics=6, trace=7, budget=8)";
      return false;
  }
  const std::uint64_t want = static_cast<std::uint64_t>(kAdminHeaderBytes) +
                             model_len + static_cast<std::uint64_t>(path_len);
  if (want != len) {
    *error = "admin frame size mismatch";
    return false;
  }
  model->assign(payload + kAdminHeaderBytes, model_len);
  path->assign(payload + kAdminHeaderBytes + model_len, path_len);
  if (*verb == AdminVerb::kPublish && path->empty()) {
    *error = "admin verb 'publish' needs a path naming the artifact file";
    return false;
  }
  return true;
}

std::string EncodeAdminReplyFrame(const std::string& json) {
  return WrapFrame(FrameType::kAdminReply, json);
}

}  // namespace gcon
