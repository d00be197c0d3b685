// Seed-corpus replay for the fuzz harnesses, for builds without libFuzzer.
//
// Linked with one fuzz/*_fuzz.cc when GCON_ENABLE_FUZZERS is OFF, it feeds
// every regular file of each directory (or each file) named on the command
// line to LLVMFuzzerTestOneInput once, in sorted path order. A harness
// reports a broken invariant by trapping, so exit 0 means every seed held.
// Each input sits in a heap block of exactly its size, so a sanitizer
// build flags a parser that reads one byte past it.
//
//   ./build/frame_fuzz fuzz/corpus/frame
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <corpus dir or file>...\n", argv[0]);
    return 2;
  }
  std::vector<std::filesystem::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path arg(argv[i]);
    if (!std::filesystem::is_directory(arg)) {
      inputs.push_back(arg);
      continue;
    }
    for (const auto& entry : std::filesystem::directory_iterator(arg)) {
      if (entry.is_regular_file()) inputs.push_back(entry.path());
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "no inputs to replay\n");
    return 2;
  }
  std::sort(inputs.begin(), inputs.end());
  for (const auto& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 2;
    }
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const std::unique_ptr<std::uint8_t[]> data(
        new std::uint8_t[bytes.size()]);
    if (!bytes.empty()) std::memcpy(data.get(), bytes.data(), bytes.size());
    LLVMFuzzerTestOneInput(data.get(), bytes.size());
  }
  std::printf("replayed %zu inputs\n", inputs.size());
  return 0;
}
