// libFuzzer harness for the binary frame codec (serve/frame.h).
//
// Build: cmake --preset fuzz && cmake --build --preset fuzz
// Run:   ./build-fuzz/frame_fuzz fuzz/corpus/frame -max_total_time=30
//
// Invariants under fuzz: no parser crashes, hangs, or trips a sanitizer
// on arbitrary bytes — hostile declared lengths, truncated frames, and
// version-skew hellos included; every rejection names its defect
// (non-empty error, the same contract wire_fuzz holds the JSON parser
// to); an accepted hello negotiates to a version the server-side ack
// round-trips; an accepted request holds only finite features and
// re-encodes to a frame whose payload parses back to the same request.
// The parsers read the fuzzer's bytes where they lie: no payload needs
// any alignment.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "serve/frame.h"

namespace {

void CheckRequestPayload(const char* payload, std::size_t size) {
  gcon::ServeRequest request;
  std::string error;
  if (!gcon::ParseRequestPayload(payload, size, &request, &error)) {
    if (error.empty()) __builtin_trap();  // every rejection must say why
    return;
  }
  for (double v : request.features) {
    if (!std::isfinite(v)) __builtin_trap();  // non-finite must reject
  }
  // Round-trip: re-encode (f64 features narrow to f32, exactly, since they
  // were widened from f32) and the re-parsed payload must agree.
  const std::string frame = gcon::EncodeRequestFrame(request);
  gcon::ServeRequest again;
  if (!gcon::ParseRequestPayload(frame.data() + gcon::kFrameHeaderBytes,
                                 frame.size() - gcon::kFrameHeaderBytes,
                                 &again, &error)) {
    __builtin_trap();  // our own encoder emitted a rejected payload
  }
  if (again.id != request.id || again.node != request.node ||
      again.deadline_us != request.deadline_us ||
      again.model != request.model || again.has_edges != request.has_edges ||
      again.edges != request.edges ||
      again.has_features != request.has_features ||
      again.features.size() != request.features.size()) {
    __builtin_trap();
  }
  if (!request.features.empty() &&
      std::memcmp(again.features.data(), request.features.data(),
                  sizeof(double) * request.features.size()) != 0) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const char* bytes = reinterpret_cast<const char*>(data);
  std::string error;

  // Hello / version negotiation (covers version-skew: whatever version the
  // bytes claim, the negotiated ack must itself be a valid hello).
  std::uint16_t version = 0;
  if (gcon::ParseHello(bytes, size, &version, &error)) {
    if (version == 0) __builtin_trap();  // version 0 must parse as malformed
    const std::uint16_t negotiated = std::min(version, gcon::kFrameVersion);
    const std::string ack = gcon::EncodeHello(negotiated);
    std::uint16_t echoed = 0;
    if (!gcon::ParseHello(ack.data(), ack.size(), &echoed, &error) ||
        echoed != negotiated) {
      __builtin_trap();
    }
  } else if (error.empty()) {
    __builtin_trap();
  }

  // Frame header (hostile payload_len / unknown types).
  if (size >= gcon::kFrameHeaderBytes) {
    gcon::FrameType type{};
    std::uint32_t payload_len = 0;
    error.clear();
    if (!gcon::ParseFrameHeader(bytes, &type, &payload_len, &error)) {
      if (error.empty()) __builtin_trap();
    } else if (payload_len > gcon::kMaxFrameBytes) {
      __builtin_trap();
    }
  }

  // Payload parsers.
  CheckRequestPayload(bytes, size);
  {
    gcon::ServeResponse response;
    error.clear();
    if (!gcon::ParseResponsePayload(bytes, size, &response, &error) &&
        error.empty()) {
      __builtin_trap();
    }
  }
  {
    gcon::FrameError frame_error;
    error.clear();
    if (!gcon::ParseErrorPayload(bytes, size, &frame_error, &error) &&
        error.empty()) {
      __builtin_trap();
    }
  }
  {
    gcon::AdminVerb verb{};
    std::string model, path;
    error.clear();
    if (!gcon::ParseAdminPayload(bytes, size, &verb, &model, &path, &error) &&
        error.empty()) {
      __builtin_trap();
    }
  }
  return 0;
}
