// Fixture: seeded no-raw-threads violation (std::thread outside
// src/common/parallel.* and src/serve/). Never compiled; consumed by
// tests/lint_invariants_test.py.
#include <thread>

void SpawnRogueWorker() {
  std::thread worker([] {});
  worker.join();
}
