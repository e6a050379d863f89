// MemorySystem: the interface between processors and a memory-hierarchy
// organization.
//
// The paper analyses two clustered organizations (Section 2):
//   - *shared cache* clusters: processors share one cache, backed by the
//     directory-coherent network (CoherenceController);
//   - *shared main memory* clusters: per-processor caches on a snoopy bus
//     over a cluster-local COMA-style attraction memory
//     (ClusteredMemorySystem).
// Both present the same access interface to the processor model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/core/stats.hpp"
#include "src/core/types.hpp"

namespace csim {

class CacheStorage;
class Observer;
struct WarmState;

/// Hit-filter generation counters per cluster (docs/PERFORMANCE.md §3). Each
/// cluster's generation is striped by line: a kill of line L bumps only
/// stripe gen_stripe(L), so it leaves the hints for lines on other stripes
/// alive.
inline constexpr std::size_t kGenStripes = 256;

/// Stripe of cluster generation counters that guards `line` (a line-aligned
/// address; `line_shift` = log2 of the line size). The memory system's kill
/// hooks and the processor's filter probes must agree on it.
[[nodiscard]] constexpr std::size_t gen_stripe(Addr line,
                                               unsigned line_shift) noexcept {
  return static_cast<std::size_t>(line >> line_shift) & (kGenStripes - 1);
}

/// Repeat-access eligibility of a Hit, used by the processor's
/// generation-tagged hit filter (docs/PERFORMANCE.md). The memory system
/// promises that, as long as the generation stripe guarding the line in the
/// processor's cluster is unchanged, another access to the same line by the
/// same processor would be a plain Hit with exactly the same counter updates
/// — so the processor may short-circuit it, provided it also performs the
/// LRU touch the slow path would have (touch_cache()).
enum class MruHint : std::uint8_t {
  None,       ///< not eligible (miss, merge, pending fill, …)
  ReadOnly,   ///< repeat reads are plain hits (line SHARED)
  ReadWrite,  ///< repeat reads and writes are plain hits (line EXCLUSIVE)
};

/// Outcome of one access, consumed by the processor model for time
/// accounting.
struct AccessResult {
  enum class Kind : std::uint8_t {
    Hit,          ///< satisfied at the processor's first-level (1 cycle)
    NearHit,      ///< satisfied within the cluster (snoop / cluster memory);
                  ///< stalls `latency` cycles but is not a global miss
    Merge,        ///< read joined an in-flight fill; ready_at = fill time
    ReadMiss,     ///< processor stalls `latency` cycles (Table 1)
    WriteMiss,    ///< hidden; fill in flight
    UpgradeMiss,  ///< hidden; ownership transferred instantly
  };
  Kind kind = Kind::Hit;
  Cycles latency = 0;   ///< stall (ReadMiss/NearHit) or fill (WriteMiss) time
  Cycles ready_at = 0;  ///< absolute fill time (Merge/ReadMiss/WriteMiss)
  LatencyClass lclass = LatencyClass::LocalClean;
  MruHint hint = MruHint::None;  ///< set only by opted-in memory systems
  /// Processor-visible queueing delay (bank / directory / NIC waits) under
  /// the contention model; charged to TimeBuckets::contention. Always 0 when
  /// ContentionSpec::enabled is false.
  Cycles contention = 0;
};

class MemorySystem {
 public:
  virtual ~MemorySystem() = default;

  /// Processor `p` reads / writes address `a` at time `now`.
  virtual AccessResult read(ProcId p, Addr a, Cycles now) = 0;
  virtual AccessResult write(ProcId p, Addr a, Cycles now) = 0;

  // --- Cluster-parallel execution support (ParallelSpec) -------------------

  /// Cluster-local attempt at a read/write, used inside a parallel window
  /// where only `p`'s own cluster state may be touched. Returns the access
  /// result when the operation completes entirely within the cluster
  /// (hit, merge, snoop / cluster-memory transfer, exclusive upgrade of an
  /// already cluster-exclusive line), or nullopt when it is globally
  /// visible and must be deferred to the window boundary, where the
  /// coordinator re-issues the full read()/write().
  ///
  /// Contract for the nullopt path: no state anywhere may change in a way
  /// the boundary re-issue would double-count — in particular the
  /// reads/writes counters are NOT bumped (the full call does that).
  /// Cluster-local cleanups that the full call would also perform (stale
  /// MSHR release, LRU touches) are allowed. The defaults defer everything,
  /// which is correct (if slow) for any organization.
  virtual std::optional<AccessResult> local_read(ProcId p, Addr a,
                                                 Cycles now) {
    (void)p;
    (void)a;
    (void)now;
    return std::nullopt;
  }
  virtual std::optional<AccessResult> local_write(ProcId p, Addr a,
                                                  Cycles now) {
    (void)p;
    (void)a;
    (void)now;
    return std::nullopt;
  }

  [[nodiscard]] virtual const MissCounters& cluster_counters(
      ClusterId c) const = 0;
  [[nodiscard]] virtual MissCounters totals() const = 0;

  /// Coherence invariant audit: cross-checks directory state against cache
  /// state and throws ProtocolError (naming the line and the disagreeing
  /// states) on any violation. The Simulator runs this at the end of every
  /// run and, when MachineSpec::audit_interval is set, every N events.
  /// Default is a no-op for memory systems with no coherence state to check
  /// (profilers, recorders). Invariants: docs/ROBUSTNESS.md.
  virtual void audit() const {}

  // --- Processor hit-filter fast-path support (docs/PERFORMANCE.md) --------

  /// Base of cluster `c`'s kGenStripes hit-filter generation counters,
  /// stable for this memory system's lifetime, or nullptr (the default) when
  /// the filter must stay disabled for that cluster. A participating memory
  /// system bumps counter gen_stripe(L) on every event that could invalidate
  /// a processor's hint for line L in that cluster — invalidation, eviction,
  /// downgrade — and nothing else. Plain accesses never bump, and a kill of
  /// L leaves other clusters and other stripes alone, so hints survive
  /// across event-queue slices and across unrelated kills.
  [[nodiscard]] virtual const std::uint64_t* generation_addr(
      ClusterId) const noexcept {
    return nullptr;
  }

  /// Cache the processor must LRU-touch on each filtered hit for `p`'s
  /// accesses, or nullptr (the default) when no touch is needed. Bounded LRU
  /// caches need the touch — a skipped one would be observable in eviction
  /// order. Infinite caches have no replacement order to maintain and return
  /// nullptr.
  [[nodiscard]] virtual CacheStorage* touch_cache(ProcId) noexcept {
    return nullptr;
  }

  /// Counters the processor fast path bumps directly for short-circuited
  /// hits. nullptr (the default) disables the fast path entirely — memory
  /// systems that must observe every access (working-set profilers, trace
  /// recorders) simply don't override this.
  [[nodiscard]] virtual MissCounters* hot_counters(ClusterId) noexcept {
    return nullptr;
  }

  // --- Interval sampling support (SamplingSpec; src/core/sampling.hpp) -----

  /// Functional-warming mode: accesses still update caches, directory /
  /// snoop state, and miss counters, but skip everything that only affects
  /// timing — MSHR allocation (fills complete instantly) and the queued
  /// contention model. Toggling the mode (either direction) drops all MSHR
  /// entries, so the state at a regime boundary is canonical: identical
  /// whether it was warmed in-process or restored from a checkpoint (which
  /// never stores MSHRs). Default is a no-op for timing-free systems.
  virtual void set_functional(bool on) { (void)on; }

  /// Serializes the warm state (caches, directory, attraction memory, home
  /// map, touched-line set, counters) into `out` for checkpointing, in a
  /// byte-deterministic order. Returns false (the default) for memory
  /// systems that don't support warm-state checkpoints.
  virtual bool capture_warm_state(WarmState& out) const {
    (void)out;
    return false;
  }

  /// Installs a captured warm state. The memory system must be freshly
  /// constructed (nothing accessed yet). Returns false when unsupported or
  /// when `ws` does not fit this organization / geometry.
  virtual bool restore_warm_state(const WarmState& ws) {
    (void)ws;
    return false;
  }

  /// Attaches an observability sink (src/obs/observer.hpp). Null (the
  /// default) disables every hook — a single branch per site.
  void set_observer(Observer* obs) noexcept { obs_ = obs; }

 protected:
  Observer* obs_ = nullptr;  ///< invalidation / store-stall hook sink
};

}  // namespace csim
