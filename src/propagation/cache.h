// Cross-run propagation cache.
//
// GCON's decoupled design (and GAP/ProGAP's, after them) makes everything
// before the privacy budget enters a pure function of (graph structure,
// encoder output, steps, alpha): the transition matrix Ã and the propagated
// features Z can be computed once and reused. Repeated-run drivers —
// RunMethodRepeated, the bench_fig1/fig4 epsilon sweeps, the gcon adapter's
// alpha_grid search — would otherwise rebuild Ã and re-propagate identical
// features on every run; this process-wide cache memoizes both.
//
// Keying and invalidation:
//   * CSR entries (transition / adjacency / caller-tagged builds) are keyed
//     on a structural graph fingerprint — a 64-bit hash of (n, classes,
//     degrees, neighbor lists) — plus a builder tag and scalar parameter.
//     Features do not enter the fingerprint because none of the cached
//     builders read them. Mutating a graph (Add/RemoveEdge) changes the
//     fingerprint, so stale entries are never returned; they simply age out
//     of the LRU.
//   * Propagation entries are keyed on (CSR entry key, 64-bit content hash
//     of X plus its shape, steps, alpha). A hash collision would require two
//     distinct same-shape feature matrices with equal 64-bit hashes —
//     negligible against the ~1e-3 scale of the statistics involved.
//   * Both stores are LRU-bounded (entry count and total bytes); there is
//     no time-based invalidation because entries are immutable pure values.
//
// Hits return copies (callers own their matrices, public APIs unchanged).
// A hit is bitwise identical to the recompute it replaces, so determinism
// guarantees pass through the cache unchanged. Disable with
// GCON_PROPAGATION_CACHE=0 in the environment or set_enabled(false).
//
// Thread safety: every public method is safe to call concurrently (one
// internal mutex; builds run outside it, so two threads missing the same
// key both build — last insert wins, and both get bitwise-identical
// values). stats() is the process-wide tally; per-call attribution under
// concurrency goes through PropagationCacheStatsScope below.
#ifndef GCON_PROPAGATION_CACHE_H_
#define GCON_PROPAGATION_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "linalg/matrix.h"
#include "propagation/transition.h"
#include "sparse/csr_matrix.h"

namespace gcon {

/// 64-bit structural fingerprint (nodes, classes, edges); features excluded.
std::uint64_t FingerprintGraph(const Graph& graph);

/// 64-bit content hash of a Matrix (shape + raw element bit patterns).
std::uint64_t HashMatrix(const Matrix& m);

/// Counters exposed to benches and RunMethodRepeated. csr_* covers every
/// CSR build kind (transition, adjacency, caller-tagged); propagation_*
/// covers ConcatPropagate. *_misses time the builds actually executed
/// (miss_build_seconds); *_hits credit the build time of the entry they
/// avoided recomputing (hit_seconds_saved).
struct PropagationCacheStats {
  std::uint64_t csr_hits = 0;
  std::uint64_t csr_misses = 0;
  std::uint64_t propagation_hits = 0;
  std::uint64_t propagation_misses = 0;
  double miss_build_seconds = 0.0;
  double hit_seconds_saved = 0.0;
  std::size_t entries = 0;
  std::size_t bytes = 0;

  /// Accumulates the event counters of `o` (hits/misses/seconds). The
  /// store-snapshot fields (entries, bytes) describe a moment, not events,
  /// and are left untouched. Every tally in the codebase — the global
  /// stats_, the per-thread scopes, RunMethodRepeated's per-run merge —
  /// goes through this one place.
  void AddEvents(const PropagationCacheStats& o);
};

/// RAII scope that counts the cache events performed *by the constructing
/// thread* while it is alive — the per-call accounting that replaced the
/// old "diff PropagationCache::Global().stats() across the call" scheme,
/// which silently attributed every concurrent caller's events to whoever
/// diffed (see RunMethodRepeated). Scopes nest: an event is credited to
/// every scope on the current thread's stack, so an outer scope sees the
/// sum of its inner scopes plus its own direct events. A scope never
/// observes events from other threads; a worker that should contribute to
/// a caller's tally opens its own scope and the caller merges the
/// per-worker stats() snapshots (what RunMethodRepeated does per run).
/// `entries`/`bytes` stay zero — they describe the store, not a call.
/// Must be destroyed on the thread that constructed it, in LIFO order.
class PropagationCacheStatsScope {
 public:
  PropagationCacheStatsScope();
  ~PropagationCacheStatsScope();
  PropagationCacheStatsScope(const PropagationCacheStatsScope&) = delete;
  PropagationCacheStatsScope& operator=(const PropagationCacheStatsScope&) =
      delete;

  /// Events recorded so far; readable while the scope is still open (only
  /// from the owning thread — there is no synchronization).
  const PropagationCacheStats& stats() const { return stats_; }

 private:
  friend class PropagationCache;

  /// Innermost open scope of the current thread (nullptr outside any
  /// scope); chained through prev_ for nesting.
  static thread_local PropagationCacheStatsScope* current_;

  PropagationCacheStats stats_;
  PropagationCacheStatsScope* prev_ = nullptr;
};

class PropagationCache {
 public:
  /// The process-wide instance every training path shares. Enabled unless
  /// the environment sets GCON_PROPAGATION_CACHE=0.
  static PropagationCache& Global();

  PropagationCache() = default;
  PropagationCache(const PropagationCache&) = delete;
  PropagationCache& operator=(const PropagationCache&) = delete;

  /// A cached CSR build: the matrix plus the entry key that identifies it
  /// when keying dependent propagation results.
  struct CachedCsr {
    std::shared_ptr<const CsrMatrix> csr;
    std::uint64_t key = 0;
  };

  /// Memoized BuildTransition(graph, p).
  CachedCsr Transition(const Graph& graph,
                       double p = kStandardTransitionClip);

  /// Memoized graph.AdjacencyCsr() (GAP/ProGAP aggregation matrix).
  CachedCsr Adjacency(const Graph& graph);

  /// Generic memoized CSR build for callers outside this layer (e.g. the
  /// GCN/DPGCN symmetric normalization): `tag` namespaces the builder,
  /// `fingerprint` is FingerprintGraph of the source graph, `build` runs on
  /// a miss.
  CachedCsr Csr(const std::string& tag, std::uint64_t fingerprint,
                const std::function<CsrMatrix()>& build);

  /// Memoized ConcatPropagate(transition, x, steps, alpha). `transition_key`
  /// is the key of the CachedCsr holding `transition`. A key of 0 (a
  /// transition the cache did not produce) disables memoization for the
  /// call — the key could not tell two such transitions apart.
  Matrix ConcatPropagate(const CsrMatrix& transition,
                         std::uint64_t transition_key, const Matrix& x,
                         const std::vector<int>& steps, double alpha);

  PropagationCacheStats stats() const;
  void ResetStats();

  /// Drops every entry (stats are kept; see ResetStats).
  void Clear();

  bool enabled() const;
  /// Disabling clears the stores; every call then recomputes.
  void set_enabled(bool enabled);

  /// LRU bounds. Defaults: 32 entries per store, 512 MiB total.
  void set_capacity(std::size_t max_entries_per_store, std::size_t max_bytes);

 private:
  struct CsrEntry {
    std::shared_ptr<const CsrMatrix> csr;
    double build_seconds = 0.0;
    std::uint64_t last_use = 0;
  };
  struct PropKey {
    std::uint64_t transition_key;
    std::uint64_t x_hash;
    std::size_t x_rows;
    std::size_t x_cols;
    std::vector<int> steps;
    double alpha;
    bool operator<(const PropKey& o) const;
  };
  struct PropEntry {
    std::shared_ptr<const Matrix> z;
    double build_seconds = 0.0;
    std::uint64_t last_use = 0;
  };

  CachedCsr CsrLocked(const std::string& tag, std::uint64_t fingerprint,
                      double param, const std::function<CsrMatrix()>& build);
  void EvictIfNeededLocked();
  std::size_t BytesLocked() const;

  /// Credits a cache event (counter deltas in `event`) to every
  /// PropagationCacheStatsScope open on the current thread.
  static void RecordScoped(const PropagationCacheStats& event);

  mutable std::mutex mu_;
  bool enabled_ = true;
  std::size_t max_entries_per_store_ = 32;
  std::size_t max_bytes_ = 512u << 20;
  std::uint64_t clock_ = 0;
  std::map<std::uint64_t, CsrEntry> csr_store_;
  std::map<PropKey, PropEntry> prop_store_;
  PropagationCacheStats stats_;
};

}  // namespace gcon

#endif  // GCON_PROPAGATION_CACHE_H_
