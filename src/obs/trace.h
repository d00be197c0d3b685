// Per-request trace recorder for the serving tier.
//
// A sampled ServeRequest carries a RequestTrace: a span timeline stamped at
// the stations a query passes through —
//   parse -> enqueue -> batch-form -> gather -> gemm -> respond
// — each mark an offset in microseconds from the trace's start (the moment
// the wire layer finished parsing the request). Marks are plain doubles,
// not atomics: every stamp site is ordered by the synchronization the
// query already rides (the batcher mutex between enqueue and batch-form;
// between gemm and respond, the query's `done` flag, which the thread that
// ran its batch release-stores under that mutex and the thread that answers
// reads before responding), so there is no concurrent access to a mark.
//
// Sampling is decided once, at the wire layer, by TraceRecorder::MaybeStart.
// The disarmed fast path (sample_every == 0, or this request not selected)
// is one relaxed atomic load (+ one relaxed fetch_add when armed) and
// returns a null shared_ptr; every downstream stamp site is then a single
// null-pointer check. Default is disarmed; `gcon_cli serve` arms 1/64 via
// --trace-sample.
//
// Completed traces land in a fixed-size lock-free ring (a per-slot seqlock
// over atomic fields — writers never block, torn reads are detected and
// skipped), served back by the `trace` admin verb as JSON. Traces slower
// than the configured --slow-query-us threshold are additionally logged
// with their spans inline.
#ifndef GCON_OBS_TRACE_H_
#define GCON_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/timer.h"

namespace gcon {
namespace obs {

enum TraceMark : int {
  kMarkParse = 0,
  kMarkEnqueue,
  kMarkBatchForm,
  kMarkGather,
  kMarkGemm,
  kMarkRespond,
};
inline constexpr int kNumTraceMarks = 6;

/// Stable span names, indexed by TraceMark; shared by the JSON exposition,
/// the slow-query log, and the README glossary.
const char* TraceMarkName(int mark);

/// Transport tags for RequestTrace::transport.
inline constexpr int kTransportJson = 0;
inline constexpr int kTransportBinary = 1;
const char* TransportName(int transport);

struct RequestTrace {
  std::int64_t id = 0;
  int transport = kTransportJson;
  Timer timer;  ///< starts at MaybeStart (parse time)
  std::array<double, kNumTraceMarks> offset_us;

  RequestTrace() { offset_us.fill(-1.0); }

  void Stamp(TraceMark mark) {
    offset_us[static_cast<std::size_t>(mark)] = timer.Seconds() * 1e6;
  }
};

class TraceRecorder {
 public:
  static constexpr std::size_t kRingSize = 256;

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  static TraceRecorder& Global();

  /// sample_every == 0 disarms tracing entirely; N samples every Nth
  /// request. slow_query_us == 0 disables the slow-query log.
  void Configure(std::uint32_t sample_every, std::int64_t slow_query_us);
  std::uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }
  std::int64_t slow_query_us() const {
    return slow_query_us_.load(std::memory_order_relaxed);
  }

  /// Sampling decision for one parsed request. Returns a live trace (parse
  /// already stamped) for selected requests, null otherwise.
  std::shared_ptr<RequestTrace> MaybeStart(std::int64_t id, int transport);

  /// Stamps `respond`, pushes the completed trace into the ring, counts it,
  /// and emits the slow-query log line if the total crossed the threshold.
  /// Null trace is a no-op.
  void Finish(const std::shared_ptr<RequestTrace>& trace);

  /// Last `last_n` completed traces (oldest first), one line of JSON:
  /// {"sample_every":.., "slow_query_us":.., "sampled":.., "traces":[..]}.
  std::string TracesJson(std::size_t last_n = 32) const;

  /// Completed (sampled) traces since process start.
  std::uint64_t sampled() const {
    return cursor_.load(std::memory_order_relaxed);
  }

 private:
  /// One ring slot: a seqlock over atomic fields. `version` is odd while a
  /// writer is mid-flight and 2*seq+2 once the push of sequence `seq` has
  /// landed; readers that observe anything else discard the slot.
  struct Slot {
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::int64_t> id{0};
    std::atomic<int> transport{0};
    std::array<std::atomic<double>, kNumTraceMarks> offset_us{};
  };

  std::atomic<std::uint32_t> sample_every_{0};
  std::atomic<std::int64_t> slow_query_us_{0};
  std::atomic<std::uint64_t> request_counter_{0};
  std::atomic<std::uint64_t> cursor_{0};  ///< completed pushes
  std::array<Slot, kRingSize> slots_;
};

}  // namespace obs
}  // namespace gcon

#endif  // GCON_OBS_TRACE_H_
