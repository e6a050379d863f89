// Proc: the per-processor execution context visible to application code.
//
// Application coroutines interact with the simulated machine exclusively
// through this interface:
//
//   co_await p.read(addr);     // load: may stall (miss/merge)
//   co_await p.write(addr);    // store: never stalls (store buffer)
//   co_await p.compute(n);     // n cycles of pure computation
//   co_await p.barrier(bar);   // global or phase barrier
//   co_await p.acquire(lock);  // FIFO lock
//   p.release(lock);
//
// Timing model: each operation advances this processor's local clock.
// Purely local operations (hits, computes, writes) may run ahead of global
// time by up to `runahead_quantum` cycles before the processor yields to the
// event queue; anything that stalls always yields. Read hits cost
// `hit_latency` busy cycles; read misses stall for the Table 1 latency
// (charged to the load bucket); reads joining an in-flight fill charge the
// merge bucket; barrier/lock waits charge the sync bucket.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "src/core/machine.hpp"
#include "src/core/event_queue.hpp"
#include "src/core/sampling.hpp"
#include "src/core/sim_task.hpp"
#include "src/core/stats.hpp"
#include "src/core/types.hpp"
#include "src/mem/memory_system.hpp"

namespace csim {

class Barrier;
class Lock;
class Observer;
class Proc;

/// A globally-visible operation deferred to a parallel window boundary
/// (ParallelSpec; src/core/par_engine.hpp). Inside a window a processor may
/// only touch its own cluster's state; anything else — a directory
/// transition, a barrier arrival, a lock acquire/release — is recorded in
/// the partition's outbox at its issue time and executed by the coordinator
/// at the boundary, in a fixed deterministic order (time, then source
/// cluster, then enqueue sequence).
struct Deferred {
  enum class Kind : std::uint8_t {
    Read,          ///< read that left the cluster (full read() at boundary)
    Write,         ///< write needing directory work (full write() at boundary)
    BarrierArrive, ///< barrier arrival (coordinator owns barrier state)
    LockAcquire,   ///< lock acquire (coordinator owns lock state)
    LockRelease,   ///< lock release (no suspension; h is null)
    WarmRead,      ///< functional-warming read that left the cluster
    WarmWrite,     ///< functional-warming write that left the cluster
  };
  Kind kind = Kind::Read;
  Addr addr = 0;              ///< Read/Write target
  Barrier* barrier = nullptr; ///< BarrierArrive
  Lock* lock = nullptr;       ///< LockAcquire/LockRelease
  Cycles t = 0;               ///< issue time (processor-local clock)
  std::coroutine_handle<> h{};
  Proc* p = nullptr;
};

/// A partition's boundary mailbox. `blocking` counts the entries whose
/// commitment gates forward progress — everything except WarmRead/WarmWrite,
/// whose issuers keep running (warming has no latency, so the commit can
/// wait for a convenient boundary). The engine batches windows into one
/// barrier epoch for as long as every outbox is free of blocking entries;
/// see src/core/par_engine.cpp.
struct Outbox {
  std::vector<Deferred> ops;     ///< enqueue order
  std::uint32_t blocking = 0;    ///< ops that must commit at the next boundary
  void push(const Deferred& d) {
    if (d.kind != Deferred::Kind::WarmRead &&
        d.kind != Deferred::Kind::WarmWrite) {
      ++blocking;
    }
    ops.push_back(d);
  }
  void clear() noexcept {  // keeps capacity: boundary buffers are reused
    ops.clear();
    blocking = 0;
  }
};

class Proc : public EventQueue::Resumable {
 public:
  /// What a suspended processor is waiting for (diagnostics: the Simulator
  /// renders this into MachineSnapshot / DeadlockError messages).
  enum class WaitKind : std::uint8_t {
    None,     ///< runnable (between slices) or never suspended
    Barrier,  ///< parked in a Barrier's waiter list
    Lock,     ///< queued on a contended Lock
    Memory,   ///< stalled on an outstanding miss / merged fill
  };
  struct WaitInfo {
    WaitKind kind = WaitKind::None;
    const class Barrier* barrier = nullptr;  ///< set when kind == Barrier
    const class Lock* lock = nullptr;        ///< set when kind == Lock
    Addr addr = 0;                           ///< set when kind == Memory
    Cycles ready_at = 0;                     ///< fill time (kind == Memory)
    Cycles since = 0;                        ///< local clock at suspension
  };

  Proc(const MachineSpec& cfg, EventQueue& q, MemorySystem& coh,
       ProcId id)
      : cfg_(&cfg), queue_(&q), coh_(&coh), id_(id),
        cluster_(cfg.cluster_of(id)),
        line_mask_(~Addr{cfg.cache.line_bytes - 1}),
        hot_(coh.hot_counters(cfg.cluster_of(id))),
        rng_state_(0x9e3779b9u ^ (id * 2654435761u)) {
    // Filter entries keep the writable flag in the line's low bit, which a
    // 1-byte line does not leave free.
    if (hot_ != nullptr && cfg.cache.line_bytes > 1) {
      gen_ = coh.generation_addr(cluster_);
      touch_cache_ = coh.touch_cache(id_);
    }
    while ((Addr{1} << line_shift_) < cfg.cache.line_bytes) ++line_shift_;
    if (cfg.model_shared_hit_costs && cfg.procs_per_cluster > 1) {
      const unsigned n = cfg.procs_per_cluster;
      const double m = static_cast<double>(cfg.banks_per_proc) * n;
      double miss = 1.0;
      for (unsigned i = 1; i < n; ++i) miss *= (m - 1.0) / m;
      conflict_threshold_ =
          static_cast<std::uint64_t>((1.0 - miss) * 4294967296.0);
    }
  }

  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  [[nodiscard]] ProcId id() const noexcept { return id_; }
  [[nodiscard]] ClusterId cluster() const noexcept { return cluster_; }
  [[nodiscard]] unsigned nprocs() const noexcept { return cfg_->num_procs; }
  [[nodiscard]] Cycles now() const noexcept { return now_; }
  [[nodiscard]] const TimeBuckets& buckets() const noexcept { return buckets_; }
  [[nodiscard]] const MachineSpec& config() const noexcept { return *cfg_; }
  /// Current wait state; WaitKind::None while runnable. Stable after the
  /// event queue drains, which is what deadlock diagnostics read.
  [[nodiscard]] const WaitInfo& wait() const noexcept { return wait_; }

  /// Generic suspension awaiter: if `ready` is false the coroutine parks and
  /// is resumed (via the event queue) at `resume_at`.
  struct OpAwaiter {
    Proc* p;
    Cycles resume_at = 0;
    bool ready = true;
    bool await_ready() const noexcept { return ready; }
    void await_suspend(std::coroutine_handle<> h) const {
      p->schedule_resume(resume_at, h);
    }
    void await_resume() const noexcept {}
  };

  OpAwaiter read(Addr a) {
    OpAwaiter aw{this};
    aw.ready = do_read(a, aw.resume_at);
    return aw;
  }
  OpAwaiter write(Addr a) {
    OpAwaiter aw{this};
    aw.ready = do_write(a, aw.resume_at);
    return aw;
  }
  OpAwaiter compute(Cycles n) {
    OpAwaiter aw{this};
    aw.ready = do_compute(n, aw.resume_at);
    return aw;
  }

  // --- Run-length access streams (docs/PERFORMANCE.md) --------------------

  /// One step of a run element: a strided read/write stream or a fixed
  /// per-element compute burst.
  struct RunOp {
    enum class Kind : std::uint8_t { Read, Write, Compute };
    Addr base = 0;    ///< Compute: busy cycles per element
    Addr stride = 0;  ///< element i accesses base + i*stride (Compute: unused)
    Kind kind = Kind::Read;
    static constexpr RunOp read(Addr base, Addr stride = 0) noexcept {
      return {base, stride, Kind::Read};
    }
    static constexpr RunOp write(Addr base, Addr stride = 0) noexcept {
      return {base, stride, Kind::Write};
    }
    static constexpr RunOp compute(Cycles cycles) noexcept {
      return {cycles, 0, Kind::Compute};
    }
  };

  /// Awaitable for a whole run; see Proc::run.
  struct RunAwaiter {
    Proc* p;
    Cycles resume_at = 0;
    bool ready = true;
    bool await_ready() const noexcept { return ready; }
    void await_suspend(std::coroutine_handle<> h) const {
      p->schedule_resume(resume_at, h);
    }
    void await_resume() const noexcept {}
  };

  /// Issues a run: `count` elements, each executing `ops` in order (reads and
  /// writes at base + i*stride, computes of a fixed per-element cost).
  /// Awaiting the result retires the whole run exactly as the equivalent
  /// per-reference co_await loop would — same references, same order, same
  /// cycle accounting, same event schedule — but in a tight retirement loop
  /// that re-enters the scheduler only at a miss, merge, or quantum expiry
  /// instead of crossing a coroutine frame per reference. The awaitable must
  /// be co_awaited immediately: a Proc has one live run at a time.
  RunAwaiter run(std::initializer_list<RunOp> ops, std::uint32_t count);

  /// Capacity of a run's per-element op list (sized for the widest workload
  /// stencil — Ocean's restriction); longer lists must be chunked by the app.
  static constexpr unsigned kMaxRunOps = 20;

  /// As above, for op lists assembled at runtime (e.g. a stencil built in a
  /// loop). `num_ops` must be ≤ kMaxRunOps.
  RunAwaiter run(const RunOp* ops, unsigned num_ops, std::uint32_t count);

  /// Single-stream convenience: `count` strided references, each optionally
  /// followed by `compute_per_ref` busy cycles.
  RunAwaiter run(Addr base, Addr stride, std::uint32_t count, bool is_write,
                 Cycles compute_per_ref = 0);

  struct BarrierAwaiter {
    Proc* p;
    Barrier* b;
    bool await_ready() const;
    void await_suspend(std::coroutine_handle<> h) const;
    void await_resume() const noexcept {}
  };
  BarrierAwaiter barrier(Barrier& b) { return BarrierAwaiter{this, &b}; }

  struct AcquireAwaiter {
    Proc* p;
    Lock* l;
    bool await_ready() const;
    void await_suspend(std::coroutine_handle<> h) const;
    void await_resume() const noexcept {}
  };
  AcquireAwaiter acquire(Lock& l) { return AcquireAwaiter{this, &l}; }
  void release(Lock& l);

  // --- engine-side interface (used by Simulator and sync primitives) ------

  /// Resets the local clock at the start of an event-queue slice.
  void begin_slice(Cycles t) noexcept {
    now_ = t;
    slice_end_ = t + (sampling_ == nullptr ? cfg_->runahead_quantum
                                           : sampling_->quantum());
    wait_ = WaitInfo{};  // resumed: whatever we waited for is over
  }

  /// Attaches the interval-sampling controller (src/core/sampling.hpp). Null
  /// (the default) keeps every access on the unsampled hot path — a single
  /// branch per operation. Sampled runs also get the enlarged warming-only
  /// hit table; unsampled runs never pay for its memory.
  void set_sampling(SamplingController* s) {
    sampling_ = s;
    if (s != nullptr && gen_ != nullptr && warm_filter_.empty()) {
      warm_filter_.assign(kWarmFilterSlots, FilterEntry{});
    }
  }

  /// Schedules `h` to resume at absolute time `t` (with a fresh slice).
  void schedule_resume(Cycles t, std::coroutine_handle<> h);

  /// EventQueue fast-path dispatch: fresh slice, resume, completion check.
  void resume_event(Cycles t, std::coroutine_handle<> h) override;

  /// Starts the root coroutine at t = 0 (first slice; used by Simulator).
  void launch();

  /// Attaches an observability sink (src/obs/observer.hpp). Null (the
  /// default) disables every hook — a single branch per site.
  void set_observer(Observer* obs) noexcept { obs_ = obs; }

  /// Records completion if the root coroutine has finished.
  void note_if_finished() noexcept;

  // --- Cluster-parallel execution (ParallelSpec; src/core/par_engine) -----

  /// Enters parallel-window mode: globally-visible operations defer into
  /// `outbox` instead of executing inline. Null (the default) keeps every
  /// operation on the legacy inline path.
  void set_parallel_outbox(Outbox* outbox) noexcept { outbox_ = outbox; }

  /// Window-boundary execution of a deferred operation, run by the
  /// coordinator with every partition quiescent. `floor` is the next
  /// window's start: the operation's outcome is only determined at the
  /// boundary, so the issuing processor never resumes before it.
  void finish_deferred(const Deferred& d, Cycles floor);

  TimeBuckets& mutable_buckets() noexcept { return buckets_; }

  bool finished = false;
  Cycles finish_time = 0;
  SimTask root;

 private:
  bool do_read(Addr a, Cycles& resume_at);
  bool do_write(Addr a, Cycles& resume_at);
  bool do_compute(Cycles n, Cycles& resume_at);

  /// The unsampled access paths (today's full-detail semantics), also used
  /// verbatim inside a sampled run's detailed intervals.
  bool detail_read(Addr a, Cycles& resume_at);
  bool detail_write(Addr a, Cycles& resume_at);

  /// Sampled-run dispatch: detail path + reference accounting, or the
  /// functional-warming / fast-forward path.
  bool sampled_read(Addr a, Cycles& resume_at);
  bool sampled_write(Addr a, Cycles& resume_at);

  /// Functional warming: memory state (and counters) updated through the
  /// usual protocol, but every reference retires at a flat hit_latency —
  /// never stalls, never rolls the shared-hit-cost rng. In FastForward the
  /// memory call is skipped entirely; the timing is identical by
  /// construction (warming timing never depends on memory state), which is
  /// what makes checkpoint restore exact.
  bool warm_read(Addr a, Cycles& resume_at);
  bool warm_write(Addr a, Cycles& resume_at);

  /// In-flight run (one per processor).
  struct RunState {
    std::array<RunOp, kMaxRunOps> ops{};
    unsigned num_ops = 0;
    unsigned pc = 0;        ///< next op of the current element
    std::uint32_t idx = 0;  ///< current element
    std::uint32_t count = 0;
    bool active = false;  ///< suspended mid-run; resume_event re-enters it
  };
  /// Retires run ops until the run completes (true) or an op yields to the
  /// event queue (false, resume_at set) — stall, merge, or quantum expiry.
  bool run_step(Cycles& resume_at);
  /// run_step for sampled runs: in a non-detail regime, whole groups of run
  /// iterations retire per memory probe (warm_run_batch).
  bool run_step_sampled(Cycles& resume_at);
  /// One warming/fast-forward batch of the active run: retires `k` whole
  /// iterations at the flat warming cost, with at most one real memory
  /// access per memory op (the rest are exactly the repeat hits the filter
  /// would short-circuit, bumped in bulk). Sets `progressed` false (and
  /// consumes nothing) when not even one whole iteration fits before the
  /// next slice / regime / poll point — the caller then retires that
  /// iteration per reference, so yield points and regime transitions land
  /// on exactly the same cycle as unbatched warming.
  bool warm_run_batch(Cycles& resume_at, bool& progressed);
  /// True if the slice budget is exhausted; sets resume_at for suspension.
  bool check_slice(Cycles& resume_at) noexcept {
    if (now_ >= slice_end_) {
      resume_at = now_;
      return false;
    }
    return true;
  }

  /// Cache access cost in cycles: hit_latency, or — when shared-cache hit
  /// costs are modelled in-simulation — the Table 1 shared hit latency plus
  /// one cycle on a pseudo-random bank conflict (Table 4 probability).
  Cycles access_cost() noexcept {
    if (!cfg_->model_shared_hit_costs) return cfg_->hit_latency;
    Cycles cost = cfg_->shared_cache_hit_latency();
    if (conflict_threshold_ != 0) {
      rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
      if ((rng_state_ >> 32) < conflict_threshold_) ++cost;
    }
    return cost;
  }

  const MachineSpec* cfg_;
  EventQueue* queue_;
  MemorySystem* coh_;
  Observer* obs_ = nullptr;
  ProcId id_;
  ClusterId cluster_;
  Addr line_mask_;
  Cycles now_ = 0;
  Cycles slice_end_ = 0;
  WaitInfo wait_{};
  TimeBuckets buckets_{};

  // Generation-tagged hit filter (docs/PERFORMANCE.md): a small direct-mapped
  // table of lines this processor recently hit, each entry valid while the
  // generation stripe guarding its line in this cluster
  // (MemorySystem::generation_addr, gen_stripe) is unchanged. The memory
  // system bumps a stripe only when it kills a line on that stripe in
  // *this* cluster, so — unlike a global epoch — entries survive across
  // event-queue slices while other clusters run, and across kills of
  // unrelated lines. Repeat hits bypass the virtual access call and its
  // protocol branches, charging access_cost() and bumping reads/hits via
  // hot_; with bounded LRU caches they also touch the line (touch_cache_) so
  // eviction order — and with it every digest — stays bit-identical to the
  // slow path. Disabled (gen_ == nullptr) when the memory system must
  // observe every access.
  //
  // AddressSpace page-aligns every allocation, so the same element of
  // different arrays shares its low line bits (Ocean's grids sit a multiple
  // of 128 lines apart). The slot index therefore XOR-folds higher line bits
  // into the low ones; indexing by the low bits alone would put every
  // array's stream on the same slot.
  static constexpr std::size_t kFilterSlots = 64;
  struct FilterEntry {
    Addr tag = ~Addr{0};  // line | writable; ~0 matches no line
    std::uint64_t gen = 0;
  };
  static_assert(sizeof(FilterEntry) == 16);
  [[nodiscard]] std::size_t filter_slot(Addr line) const noexcept {
    const Addr l = line >> line_shift_;
    return (l ^ (l >> 6) ^ (l >> 12)) & (kFilterSlots - 1);
  }
  /// Current generation of the stripe guarding `line`.
  [[nodiscard]] std::uint64_t gen_of(Addr line) const noexcept {
    return gen_[gen_stripe(line, line_shift_)];
  }
  /// True if `e` proves a repeat read (or, with `write`, a repeat write) of
  /// `line` is a plain hit.
  [[nodiscard]] bool filter_hit(const FilterEntry& e, Addr line,
                                bool write) const noexcept {
    return (write ? e.tag == (line | 1) : (e.tag & ~Addr{1}) == line) &&
           e.gen == gen_of(line);
  }
  [[nodiscard]] FilterEntry hint_entry(Addr line, MruHint h) const noexcept {
    return FilterEntry{line | Addr{h == MruHint::ReadWrite}, gen_of(line)};
  }
  /// Records the memory system's hint for `line` in the detailed filter.
  void learn(Addr line, MruHint h) noexcept {
    if (h != MruHint::None && gen_ != nullptr) {
      filter_[filter_slot(line)] = hint_entry(line, h);
    }
  }
  MissCounters* hot_ = nullptr;
  const std::uint64_t* gen_ = nullptr;  // stripe base; null disables filter
  CacheStorage* touch_cache_ = nullptr;  // LRU to touch per filtered hit
  std::array<FilterEntry, kFilterSlots> filter_{};
  // Functional warming consults an enlarged table instead: warming retires
  // the whole reference stream, so repeat-pass hits dominate and the
  // detailed table thrashes. Same entry shape and generation-validity rule,
  // so the digest-neutrality argument is size-independent; kept separate
  // from filter_ so the detailed path's footprint and speed are untouched.
  // Allocated only when sampling is attached (set_sampling).
  static constexpr std::size_t kWarmFilterSlots = 8192;
  [[nodiscard]] std::size_t warm_slot(Addr line) const noexcept {
    return (line >> line_shift_) & (kWarmFilterSlots - 1);
  }
  /// Bumps the hit counters for `n` short-circuited reads or writes.
  void count_hits(bool is_read, std::uint64_t n) noexcept {
    if (is_read) {
      hot_->reads += n;
      hot_->read_hits += n;
    } else {
      hot_->writes += n;
      hot_->write_hits += n;
    }
  }
  /// Records the memory system's hint for `line` in the warming table.
  void learn_warm(Addr line, MruHint h) {
    if (h != MruHint::None && gen_ != nullptr) {
      warm_filter_[warm_slot(line)] = hint_entry(line, h);
    }
  }
  std::vector<FilterEntry> warm_filter_;
  unsigned line_shift_ = 0;

  RunState run_{};

  SamplingController* sampling_ = nullptr;  // null: unsampled hot path

  // Parallel-window mode (null outbox_ = legacy inline path). A deferring
  // memory op stages its Deferred in pending_ and raises pending_defer_;
  // schedule_resume — the single point every suspension path (OpAwaiter,
  // RunAwaiter, resume_event re-entry) funnels through — then captures the
  // coroutine handle into the outbox instead of the event queue.
  Outbox* outbox_ = nullptr;
  bool pending_defer_ = false;
  Deferred pending_{};

  // Boundary helpers for finish_deferred.
  void finish_read(const Deferred& d, Cycles floor);
  void finish_write(const Deferred& d, Cycles floor);
  void finish_barrier_arrive(const Deferred& d, Cycles floor);
  void finish_lock_acquire(const Deferred& d, Cycles floor);
  void finish_lock_release(const Deferred& d, Cycles floor);
  /// WarmRead/WarmWrite: replay the warming access against globally-visible
  /// state. No coroutine to resume, no timing — warming retires at the flat
  /// hit cost when the reference issues; only the state/counter effects and
  /// the warm-filter hint happen here.
  void finish_warm(const Deferred& d);

  std::uint64_t rng_state_ = 0;
  std::uint64_t conflict_threshold_ = 0;  // scaled to 2^32
};

}  // namespace csim
