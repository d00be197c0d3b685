#include "obs/build_info.h"

#include "common/string_util.h"
#include "linalg/gemm_kernels.h"

#ifndef GCON_GIT_SHA
#define GCON_GIT_SHA "unknown"
#endif

namespace gcon {
namespace obs {

const char* GitSha() { return GCON_GIT_SHA; }

const char* CompilerVersion() { return __VERSION__; }

const char* SimdTier() {
  return internal::GemmUsesAvx2() ? "avx2+fma" : "portable";
}

std::string BuildInfoJson() {
  return std::string("{\"git_sha\": \"") + EscapeJson(GitSha()) +
         "\", \"compiler\": \"" + EscapeJson(CompilerVersion()) +
         "\", \"simd\": \"" + SimdTier() + "\"}";
}

std::string BuildSummary() {
  return std::string("sha=") + GitSha() + " compiler=" + CompilerVersion() +
         " simd=" + SimdTier();
}

}  // namespace obs
}  // namespace gcon
