// ClusteredMemorySystem: the paper's *shared main memory* cluster
// organization (Section 2).
//
// Each processor has a private cache; processors of a cluster sit on a
// snoopy bus backed by an effectively infinite COMA-style attraction memory.
// Between clusters, the same invalidation-based full-bit-vector directory as
// the shared-cache organization keeps cluster copies coherent.
//
// Paper semantics implemented here:
//  - "In a clustered memory architecture, the invalidations are sent to
//    processors that have copies, but ownership is kept within the cluster.
//    Subsequent accesses by other processors within the cluster are
//    satisfied by cache to cache transfers."
//  - "In a shared main memory cluster working sets are still duplicated but
//    the parts of the working set replaced by one processor may not have
//    been replaced by other processors, providing cache to cache sharing
//    opportunities."
//  - "In clustered memory systems destructive interference does not exist,
//    since the caches are separate."
//
// A read that misses the private cache is satisfied, in order of preference:
//  (1) by a peer cache on the bus   -> NearHit, snoop_transfer latency;
//  (2) by the cluster memory        -> NearHit, cluster_memory latency;
//  (3) remotely through the directory (Table 1 latencies, MERGE on
//      outstanding cluster fills, store-buffered writes) — a real miss.
#pragma once

#include <memory>
#include <vector>

#include "src/core/flat_map.hpp"
#include "src/core/machine.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/cache.hpp"
#include "src/mem/directory.hpp"
#include "src/mem/memory_system.hpp"
#include "src/mem/mshr.hpp"

namespace csim {

class ContentionModel;

class ClusteredMemorySystem final : public MemorySystem {
 public:
  /// Primary constructor: the run's shared immutable spec (no per-class
  /// config copy; every component of a run sees the same MachineSpec).
  ClusteredMemorySystem(std::shared_ptr<const MachineSpec> spec,
                        const AddressSpace& as);

  /// Legacy convenience: wraps `cfg` in a fresh shared spec (still safe
  /// against temporary config expressions).
  ClusteredMemorySystem(const MachineSpec& cfg, const AddressSpace& as)
      : ClusteredMemorySystem(std::make_shared<const MachineSpec>(cfg), as) {}

  // Out of line: ContentionModel is only forward-declared here.
  ~ClusteredMemorySystem() override;

  AccessResult read(ProcId p, Addr a, Cycles now) override;
  AccessResult write(ProcId p, Addr a, Cycles now) override;

  /// Cluster-local window paths (ParallelSpec): private hits, merges, bus
  /// snoop / cluster-memory transfers, and writes to lines the cluster
  /// already owns exclusively complete inline; anything that must reach the
  /// directory (remote fetch, machine-wide upgrade) defers to the window
  /// boundary.
  std::optional<AccessResult> local_read(ProcId p, Addr a,
                                         Cycles now) override;
  std::optional<AccessResult> local_write(ProcId p, Addr a,
                                          Cycles now) override;

  [[nodiscard]] const MissCounters& cluster_counters(
      ClusterId c) const override {
    return counters_[c];
  }
  [[nodiscard]] MissCounters totals() const override;

  /// Opts into the processor MRU fast path (docs/PERFORMANCE.md): repeat
  /// hits short-circuited by the processor bump these counters directly.
  /// Stays enabled under the contention model: a repeat private-cache hit
  /// never reaches the cluster bus, so short-circuiting it skips no queue.
  [[nodiscard]] MissCounters* hot_counters(ClusterId c) noexcept override {
    return &counters_[c];
  }

  /// Per-cluster striped hit-filter generations (docs/PERFORMANCE.md):
  /// stripe gen_stripe(L) is bumped whenever any private cache in the
  /// cluster loses or downgrades line L — bus invalidations, cluster purges,
  /// snoop demotions, remote-owner demotions, private-cache evictions. A
  /// hint can only go stale through one of those events (a cluster fill for
  /// a hinted line would require the line to have left its private cache
  /// first), so no per-access bump is needed; LRU exactness is the
  /// processor's job via touch_cache().
  [[nodiscard]] const std::uint64_t* generation_addr(
      ClusterId c) const noexcept override {
    return &gen_[c * kGenStripes];
  }

  /// Bounded private caches are LRU: the processor must touch the line on
  /// every filtered hit to keep eviction order bit-identical to the slow
  /// path. Infinite caches keep no replacement order — no touch needed.
  [[nodiscard]] CacheStorage* touch_cache(ProcId p) noexcept override {
    return cfg_.cache.infinite() ? nullptr : caches_[p].get();
  }

  /// Invariant audit (directory vs. attraction memories vs. private caches
  /// vs. MSHRs); throws ProtocolError on the first violation. See
  /// docs/ROBUSTNESS.md.
  void audit() const override;

  // --- Interval sampling (src/core/sampling.hpp) -------------------------
  void set_functional(bool on) override;
  bool capture_warm_state(WarmState& out) const override;
  bool restore_warm_state(const WarmState& ws) override;

  // --- Introspection for tests -------------------------------------------
  [[nodiscard]] const CacheStorage& private_cache(ProcId p) const {
    return *caches_[p];
  }
  [[nodiscard]] const Directory& directory() const { return dir_; }
  /// Test-only mutation hook: lets failure-injection tests corrupt directory
  /// state to prove audit() catches it. Never use outside tests.
  [[nodiscard]] Directory& mutable_directory_for_test() { return dir_; }
  [[nodiscard]] bool in_attraction(ClusterId c, Addr a) const {
    return attraction_[c].contains(a & ~Addr{cfg_.cache.line_bytes - 1});
  }
  [[nodiscard]] const ContentionModel* contention_model() const {
    return contention_.get();
  }

 private:
  /// Per-cluster per-line bus-level bookkeeping: which local processors hold
  /// a copy (bit per in-cluster processor index), and whether the cluster
  /// owns the line exclusively machine-wide.
  struct ClusterLine {
    std::uint64_t proc_copies = 0;
    bool cluster_exclusive = false;
  };
  using Attraction = FlatMap<ClusterLine>;

  [[nodiscard]] Addr line_of(Addr a) const noexcept {
    return a & ~Addr{cfg_.cache.line_bytes - 1};
  }
  [[nodiscard]] unsigned local_index(ProcId p) const noexcept {
    return p % cfg_.procs_per_cluster;
  }

  /// Kill hook: every hit-filter hint for `line` in cluster `c` is dead.
  void kill_hints(ClusterId c, Addr line) noexcept {
    ++gen_[c * kGenStripes + gen_stripe(line, line_shift_)];
  }

  /// Installs into `p`'s private cache; evicted victims fall back to the
  /// attraction memory (still within the cluster, no directory hint).
  void install_private(ProcId p, Addr line, LineState st);

  /// Removes every copy of `line` in cluster `c` (bus + attraction).
  void purge_cluster(ClusterId c, Addr line);

  /// Invalidates all other clusters' copies via the directory, reporting the
  /// round to the observer at time `now`.
  void invalidate_other_clusters(Addr line, ClusterId keep, Cycles now);

  /// Brings a line into the cluster from outside (read: SHARED, write:
  /// EXCLUSIVE); shared miss/merge/latency logic of both access kinds.
  /// `bus_wait` is the already-paid cluster-bus queueing delay.
  AccessResult fetch_remote(ProcId p, Addr line, Cycles now, bool exclusive,
                            Cycles bus_wait);

  /// Contention-model cluster-bus acquisition (0 when disabled); accounts
  /// the wait into the cluster's counters. Only accesses that leave the
  /// private cache reach the bus.
  Cycles acquire_bus(ClusterId c, Addr line, Cycles now);

  std::shared_ptr<const MachineSpec> spec_;  // the run's shared immutable spec
  const MachineSpec& cfg_;                   // = *spec_
  bool functional_ = false;  // warming regime: timing-only work skipped
  std::unique_ptr<ContentionModel> contention_;  // null unless enabled
  AddressSpace::HomeMap homes_;
  Directory dir_;                                     // cluster granularity
  std::vector<std::unique_ptr<CacheStorage>> caches_; // one per processor
  std::vector<Attraction> attraction_;                // one per cluster
  std::vector<MshrTable> mshrs_;                      // one per cluster
  std::vector<MissCounters> counters_;
  std::vector<std::uint64_t> gen_;  // kGenStripes generations per cluster
  unsigned line_shift_;             // log2(line_bytes), for gen_stripe
  FlatSet touched_lines_;
};

}  // namespace csim
