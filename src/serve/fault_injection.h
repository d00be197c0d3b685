// Fault-injection hooks for the serving tier's chaos tests.
//
// The serving code calls ShouldFire(...) at a handful of named sites
// (queue admission, a batch's pre-GEMM window, the TCP write
// path, the per-batch session snapshot). Disarmed — the only state a
// production process ever has — each site costs one relaxed atomic load
// of `armed_`, so the hooks are compiled in unconditionally instead of
// forking a test-only build.
//
// Tests arm a fault for a bounded number of firings:
//
//   FaultInjector::Global().Arm(Fault::kQueueFull, 1);
//   ... submit; expect a structured `overloaded` rejection; retry works.
//
// kSwapDuringBatch is a callback site rather than a boolean: the test
// installs the Publish() call it wants to race against an in-flight batch,
// and the server handler fires it right after taking its session snapshot
// — the exact window an atomic hot-swap must survive.
//
// Faults can also be armed from the environment for whole-process chaos
// runs (`GCON_FAULTS=queue_full:3,torn_socket` — name[:count], comma
// separated), parsed once at first Global() use.
#ifndef GCON_SERVE_FAULT_INJECTION_H_
#define GCON_SERVE_FAULT_INJECTION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

namespace gcon {

/// Injection sites in the serving tier. FaultName() gives the spelling
/// GCON_FAULTS uses.
enum class Fault : int {
  kQueueFull = 0,     ///< Submit treats the queue as full (admission site)
  kSlowHandler,       ///< a batch sleeps before the deadline check/GEMM
  kMidBatchThrow,     ///< batch handler throws mid-batch
  kTornSocket,        ///< TCP write sends half a line, then kills the socket
  kSwapDuringBatch,   ///< runs the installed callback inside a batch window
  kTornLedgerWrite,   ///< budget-ledger append lands half its bytes, then dies
};

inline constexpr int kNumFaults = 6;

const char* FaultName(Fault fault);

class FaultInjector {
 public:
  /// Process-wide instance (the injection sites live in library code with
  /// no test-owned object to hand a pointer to). First use parses
  /// GCON_FAULTS.
  static FaultInjector& Global();

  /// Arms `fault` for the next `count` ShouldFire calls at its site.
  void Arm(Fault fault, int count = 1);

  /// Parses a GCON_FAULTS-style spec ("name[:count],...") and arms each
  /// entry. Returns false (arming nothing further) on a malformed spec or
  /// unknown fault name.
  bool ArmFromSpec(const std::string& spec);

  /// True exactly `count` times per Arm(fault, count), then false. The
  /// disarmed fast path is one relaxed atomic load.
  bool ShouldFire(Fault fault);

  /// Installs the action kSwapDuringBatch (or any callback-shaped fault)
  /// runs when it fires. Pass nullptr to clear.
  void SetCallback(Fault fault, std::function<void()> callback);

  /// ShouldFire + run the installed callback (if any). Used by sites whose
  /// fault is an action, not a boolean.
  void FireCallback(Fault fault);

  /// How long kSlowHandler sleeps per firing (tests shrink it to keep the
  /// suite fast).
  void set_slow_handler_us(int us) {
    slow_handler_us_.store(us, std::memory_order_relaxed);
  }
  int slow_handler_us() const {
    return slow_handler_us_.load(std::memory_order_relaxed);
  }

  /// Sleeps for slow_handler_us() if kSlowHandler fires (the batch
  /// body's one-line site).
  void MaybeSleepSlowHandler();

  /// Number of times `fault` has fired since the last Reset.
  std::uint64_t fired(Fault fault) const;

  /// Disarms everything, clears callbacks and counters. Chaos tests call
  /// this in teardown so faults never leak across tests.
  void Reset();

 private:
  FaultInjector();

  std::atomic<bool> armed_{false};
  std::array<std::atomic<int>, kNumFaults> remaining_{};
  std::array<std::atomic<std::uint64_t>, kNumFaults> fired_{};
  std::atomic<int> slow_handler_us_{20000};

  std::mutex callback_mu_;
  std::array<std::function<void()>, kNumFaults> callbacks_;
};

}  // namespace gcon

#endif  // GCON_SERVE_FAULT_INJECTION_H_
