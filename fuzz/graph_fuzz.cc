// libFuzzer harness for the graph-file loader (graph/io.h).
//
// Build: cmake --preset fuzz && cmake --build --preset fuzz
// Run:   ./build-fuzz/graph_fuzz fuzz/corpus/graph -max_total_time=30
//
// Invariants under fuzz: LoadGraph on arbitrary bytes either returns a
// consistent graph or throws std::runtime_error naming the defect — never
// aborts, leaks, overflows, writes out of range, or allocates per-node
// storage that the input's own lines do not back.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/io.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  try {
    const gcon::Graph graph = gcon::LoadGraph(in, "<fuzz>");
    (void)graph;
  } catch (const std::runtime_error& e) {
    if (e.what()[0] == '\0') {
      __builtin_trap();  // every rejection must say why
    }
  }
  return 0;
}
