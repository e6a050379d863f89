#include "src/core/processor.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/sync.hpp"
#include "src/mem/cache.hpp"
#include "src/obs/observer.hpp"

namespace csim {

void Proc::schedule_resume(Cycles t, std::coroutine_handle<> h) {
  if (pending_defer_) {
    // A deferring memory op staged pending_ (detail_read / detail_write);
    // this is the suspension that carries its coroutine handle. Route it to
    // the partition outbox — the coordinator resumes it past the boundary.
    pending_.h = h;
    outbox_->push(pending_);
    pending_defer_ = false;
    return;
  }
  queue_->schedule_resume(t, this, h);
}

void Proc::resume_event(Cycles t, std::coroutine_handle<> h) {
  begin_slice(t);
  if (run_.active) {
    // Re-enter the suspended run without resuming the coroutine; only a
    // completed run hands control back to the application code.
    Cycles resume_at = 0;
    if (!run_step(resume_at)) {
      schedule_resume(resume_at, h);
      if (obs_ != nullptr) obs_->on_slice(id_, t, now_);
      return;
    }
    run_.active = false;
  }
  h.resume();
  note_if_finished();
  if (obs_ != nullptr) obs_->on_slice(id_, t, now_);
}

void Proc::launch() {
  begin_slice(0);
  root.start();
  note_if_finished();
  if (obs_ != nullptr) obs_->on_slice(id_, 0, now_);
}

void Proc::note_if_finished() noexcept {
  if (!finished && root.valid() && root.done()) {
    finished = true;
    finish_time = now_;
  }
}

bool Proc::do_read(Addr a, Cycles& resume_at) {
  if (sampling_ != nullptr) return sampled_read(a, resume_at);
  return detail_read(a, resume_at);
}

bool Proc::do_write(Addr a, Cycles& resume_at) {
  if (sampling_ != nullptr) return sampled_write(a, resume_at);
  return detail_write(a, resume_at);
}

bool Proc::sampled_read(Addr a, Cycles& resume_at) {
  if (sampling_->detail()) {
    const bool ok = detail_read(a, resume_at);
    sampling_->on_ref(now_);
    if (ok && sampling_->yield_due()) [[unlikely]] {
      // Shard-mode epoch cap (parallel sampled runs): end the slice so the
      // epoch can close and the coordinator can flip the regime.
      resume_at = now_;
      return false;
    }
    return ok;
  }
  return warm_read(a, resume_at);
}

bool Proc::sampled_write(Addr a, Cycles& resume_at) {
  if (sampling_->detail()) {
    const bool ok = detail_write(a, resume_at);
    sampling_->on_ref(now_);
    if (ok && sampling_->yield_due()) [[unlikely]] {
      resume_at = now_;
      return false;
    }
    return ok;
  }
  return warm_write(a, resume_at);
}

bool Proc::warm_read(Addr a, Cycles& resume_at) {
  if (!sampling_->fast_forward()) {
    const Addr line = a & line_mask_;
    if (gen_ != nullptr &&
        filter_hit(warm_filter_[warm_slot(line)], line, false)) {
      ++hot_->reads;
      ++hot_->read_hits;
      if (touch_cache_ != nullptr) touch_cache_->touch(line);
    } else if (outbox_ == nullptr) {
      learn_warm(line, coh_->read(id_, a, now_).hint);
    } else if (const auto lr = coh_->local_read(id_, a, now_)) {
      learn_warm(line, lr->hint);
    } else {
      // Cross-cluster warming access: commit at the epoch boundary. The
      // issuer never stalls (warming has no latency), so this entry is
      // non-blocking — it neither suspends this processor nor forces the
      // epoch to end.
      outbox_->push(Deferred{Deferred::Kind::WarmRead, a, nullptr, nullptr,
                             now_, {}, this});
    }
  }
  const Cycles hit = cfg_->hit_latency;
  buckets_.cpu += hit;
  now_ += hit;
  sampling_->on_ref(now_);
  if (sampling_->yield_due()) [[unlikely]] {
    resume_at = now_;
    return false;
  }
  return check_slice(resume_at);
}

bool Proc::warm_write(Addr a, Cycles& resume_at) {
  if (!sampling_->fast_forward()) {
    const Addr line = a & line_mask_;
    if (gen_ != nullptr &&
        filter_hit(warm_filter_[warm_slot(line)], line, true)) {
      ++hot_->writes;
      ++hot_->write_hits;
      if (touch_cache_ != nullptr) touch_cache_->touch(line);
    } else if (outbox_ == nullptr) {
      learn_warm(line, coh_->write(id_, a, now_).hint);
    } else if (const auto lw = coh_->local_write(id_, a, now_)) {
      learn_warm(line, lw->hint);
    } else {
      outbox_->push(Deferred{Deferred::Kind::WarmWrite, a, nullptr, nullptr,
                             now_, {}, this});
    }
  }
  const Cycles hit = cfg_->hit_latency;
  buckets_.cpu += hit;
  now_ += hit;
  sampling_->on_ref(now_);
  if (sampling_->yield_due()) [[unlikely]] {
    resume_at = now_;
    return false;
  }
  return check_slice(resume_at);
}

bool Proc::detail_read(Addr a, Cycles& resume_at) {
  const Addr line = a & line_mask_;
  if (gen_ != nullptr && filter_hit(filter_[filter_slot(line)], line, false)) {
    // Repeat hit to a hinted line, its generation stripe unchanged: bypass
    // the memory system, mirroring its hit-path counter updates and (for
    // bounded LRU caches) its most-recently-used promotion.
    ++hot_->reads;
    ++hot_->read_hits;
    if (touch_cache_ != nullptr) touch_cache_->touch(line);
    const Cycles hit = access_cost();
    buckets_.cpu += hit;
    now_ += hit;
    return check_slice(resume_at);
  }
  AccessResult r;
  if (outbox_ == nullptr) {
    r = coh_->read(id_, a, now_);
  } else if (const auto lr = coh_->local_read(id_, a, now_)) {
    r = *lr;
  } else {
    // Globally-visible read: defer to the window boundary. The suspension
    // that follows (OpAwaiter / run_step yield) lands in schedule_resume,
    // which captures the handle into the outbox.
    wait_ = WaitInfo{WaitKind::Memory, nullptr, nullptr, a, 0, now_};
    pending_ = Deferred{Deferred::Kind::Read, a, nullptr, nullptr, now_, {},
                        this};
    pending_defer_ = true;
    resume_at = now_;
    return false;
  }
  learn(line, r.hint);
  const Cycles hit = access_cost();
  switch (r.kind) {
    case AccessResult::Kind::Hit:
      buckets_.cpu += hit;
      buckets_.contention += r.contention;
      now_ += hit + r.contention;
      return check_slice(resume_at);
    case AccessResult::Kind::Merge: {
      const Cycles issued = now_;
      buckets_.cpu += hit;
      buckets_.contention += r.contention;
      const Cycles issue_done = now_ + hit + r.contention;
      const Cycles stall = r.ready_at > issue_done ? r.ready_at - issue_done : 0;
      buckets_.merge += stall;
      now_ = issue_done + stall;
      resume_at = now_;
      wait_ = WaitInfo{WaitKind::Memory, nullptr, nullptr, a, now_, issued};
      if (obs_ != nullptr) {
        obs_->on_memory_stall(id_, a, Observer::Stall::Merge, issue_done, now_,
                              r.lclass);
      }
      return false;  // a stall always yields to the queue
    }
    case AccessResult::Kind::ReadMiss:
    case AccessResult::Kind::NearHit: {
      // NearHit: served within the cluster (snoop / attraction memory) in
      // the shared-main-memory organization; the stall is still load time.
      // Queueing delays (bank / directory / NIC waits) are charged to the
      // contention bucket, separating Table 1 latency from backlog stalls.
      const Cycles issued = now_;
      buckets_.cpu += hit;
      buckets_.load += r.latency;
      buckets_.contention += r.contention;
      now_ += hit + r.latency + r.contention;
      resume_at = now_;
      wait_ = WaitInfo{WaitKind::Memory, nullptr, nullptr, a, now_, issued};
      if (obs_ != nullptr) {
        obs_->on_memory_stall(id_, a, Observer::Stall::Load, issued + hit,
                              now_, r.lclass);
      }
      return false;
    }
    default:
      // Writes never come back from CoherenceController::read.
      return check_slice(resume_at);
  }
}

bool Proc::detail_write(Addr a, Cycles& resume_at) {
  const Addr line = a & line_mask_;
  if (gen_ != nullptr && filter_hit(filter_[filter_slot(line)], line, true)) {
    // Repeat store to our own EXCLUSIVE line, its generation stripe
    // unchanged: bypass the memory system, mirroring its write-hit counter
    // updates and (for bounded LRU caches) its most-recently-used promotion.
    ++hot_->writes;
    ++hot_->write_hits;
    if (touch_cache_ != nullptr) touch_cache_->touch(line);
  } else {
    AccessResult r;
    if (outbox_ == nullptr) {
      r = coh_->write(id_, a, now_);
    } else if (const auto lw = coh_->local_write(id_, a, now_)) {
      r = *lw;
    } else {
      // Directory work (upgrade / write miss): window-boundary territory.
      wait_ = WaitInfo{WaitKind::Memory, nullptr, nullptr, a, 0, now_};
      pending_ = Deferred{Deferred::Kind::Write, a, nullptr, nullptr, now_,
                          {}, this};
      pending_defer_ = true;
      resume_at = now_;
      return false;
    }
    learn(line, r.hint);
    // The store buffer hides miss latency but not the port queue: issue
    // itself waits for the bank/bus, a processor-visible contention stall.
    buckets_.contention += r.contention;
    now_ += r.contention;
  }
  // Store issue occupies the cache for one access; all miss/upgrade latency
  // is hidden by the store buffer under relaxed consistency.
  const Cycles cost = access_cost();
  buckets_.cpu += cost;
  now_ += cost;
  return check_slice(resume_at);
}

bool Proc::do_compute(Cycles n, Cycles& resume_at) {
  buckets_.cpu += n;
  now_ += n;
  return check_slice(resume_at);
}

bool Proc::run_step(Cycles& resume_at) {
  if (sampling_ != nullptr) return run_step_sampled(resume_at);
  RunState& r = run_;
  while (r.idx < r.count) {
    while (r.pc < r.num_ops) {
      const RunOp& op = r.ops[r.pc];
      ++r.pc;
      bool ok;
      switch (op.kind) {
        case RunOp::Kind::Read:
          ok = do_read(op.base + Addr{r.idx} * op.stride, resume_at);
          break;
        case RunOp::Kind::Write:
          ok = do_write(op.base + Addr{r.idx} * op.stride, resume_at);
          break;
        default:
          ok = do_compute(op.base, resume_at);
          break;
      }
      if (!ok) return false;
    }
    r.pc = 0;
    ++r.idx;
  }
  return true;
}

bool Proc::run_step_sampled(Cycles& resume_at) {
  RunState& r = run_;
  while (r.idx < r.count) {
    // Batched fast path: in a non-detail regime, whole groups of run
    // iterations retire per memory probe, whatever the op mix. Requires the
    // hit filter (gen_) to mirror the repeat-hit counter updates in bulk —
    // except in FastForward, which makes no memory calls at all. Per-ref
    // and batched warming retire identical timing (flat costs; the
    // iteration that crosses a slice, regime, or poll point always runs
    // per reference), so mixing them across runs stays exact.
    if (r.pc == 0 && !sampling_->detail() &&
        (sampling_->fast_forward() || gen_ != nullptr)) {
      bool progressed = false;
      if (!warm_run_batch(resume_at, progressed)) return false;
      if (progressed) continue;
    }
    while (r.pc < r.num_ops) {
      const RunOp& op = r.ops[r.pc];
      ++r.pc;
      bool ok;
      switch (op.kind) {
        case RunOp::Kind::Read:
          ok = do_read(op.base + Addr{r.idx} * op.stride, resume_at);
          break;
        case RunOp::Kind::Write:
          ok = do_write(op.base + Addr{r.idx} * op.stride, resume_at);
          break;
        default:
          ok = do_compute(op.base, resume_at);
          break;
      }
      if (!ok) return false;
    }
    r.pc = 0;
    ++r.idx;
  }
  return true;
}

bool Proc::warm_run_batch(Cycles& resume_at, bool& progressed) {
  RunState& r = run_;
  const Cycles hit = cfg_->hit_latency;
  // Flat cost and memory-reference count of one whole iteration.
  Cycles per_iter = 0;
  std::uint64_t mem_per_iter = 0;
  for (unsigned j = 0; j < r.num_ops; ++j) {
    if (r.ops[j].kind == RunOp::Kind::Compute) {
      per_iter += r.ops[j].base;
    } else {
      per_iter += hit;
      ++mem_per_iter;
    }
  }
  if (per_iter == 0) {  // zero-cost iterations: nothing to amortize
    progressed = false;
    return true;
  }
  // Cap 1: remaining iterations of the run.
  std::uint64_t k = r.count - r.idx;
  // Cap 2: whole iterations left in the slice (now_ < slice_end_ here; the
  // crossing iteration runs per reference, preserving the exact yield
  // cycle of unbatched warming).
  const std::uint64_t in_slice = (slice_end_ - now_) / per_iter;
  if (in_slice < k) k = in_slice;
  // Cap 3: never cross a regime boundary or a watchdog poll point (the
  // crossing iteration runs per reference, so boundaries land mid-iteration
  // on exactly the right reference).
  if (mem_per_iter != 0) {
    const std::uint64_t in_regime = sampling_->max_batch() / mem_per_iter;
    if (in_regime < k) k = in_regime;
  }
  if (k == 0) {
    progressed = false;
    return true;
  }

  if (!sampling_->fast_forward()) {
    // Memory state (FastForward makes no accesses): walk the group in
    // line-sized chunks — within a chunk every memory op stays on one cache
    // line, so after the chunk's first iteration (retired per reference:
    // warm-filter probe or real access) the rest are exactly the repeat hits
    // the filter would short-circuit, bumped in bulk. That holds only while
    // no access of the first iteration killed a line another op uses (a
    // conflict eviction between the ops' lines); the ops' generation
    // stripes show it, and such a chunk retires just its first iteration so
    // the next one re-probes. Chunking inside one call, instead of capping the
    // batch at a line crossing, amortizes the batch setup over strided
    // streams whose chunks are a single iteration (LU's block sweeps).
    // (Filter collisions between ops are harmless: the filter is a
    // digest-neutral fast path, so extra real accesses to a warm line
    // count identically.)
    std::uint64_t remaining = k;
    while (remaining != 0) {
      std::uint64_t chunk = remaining;
      for (unsigned j = 0; j < r.num_ops && chunk > 1; ++j) {
        const RunOp& op = r.ops[j];
        if (op.kind == RunOp::Kind::Compute || op.stride == 0) continue;
        const Addr addr = op.base + Addr{r.idx} * op.stride;
        const Addr next_line = (addr | ~line_mask_) + 1;
        const std::uint64_t in_line =
            (next_line - addr + op.stride - 1) / op.stride;
        if (in_line < chunk) chunk = in_line;
      }
      std::uint64_t seen = 0;  // sum of each op's stripe after its access
      for (unsigned j = 0; j < r.num_ops; ++j) {
        const RunOp& op = r.ops[j];
        if (op.kind == RunOp::Kind::Compute) continue;
        const bool is_read = op.kind == RunOp::Kind::Read;
        const Addr addr = op.base + Addr{r.idx} * op.stride;
        const Addr line = addr & line_mask_;
        if (filter_hit(warm_filter_[warm_slot(line)], line, !is_read)) {
          count_hits(is_read, 1);
          if (touch_cache_ != nullptr) touch_cache_->touch(line);
        } else if (outbox_ == nullptr) {
          learn_warm(line, is_read ? coh_->read(id_, addr, now_).hint
                                   : coh_->write(id_, addr, now_).hint);
        } else if (const auto ar = is_read
                       ? coh_->local_read(id_, addr, now_)
                       : coh_->local_write(id_, addr, now_)) {
          learn_warm(line, ar->hint);
        } else {
          // Deferred cross-cluster access: the boundary commit is the one
          // real access of this chunk; the rest are its repeat hits.
          outbox_->push(Deferred{is_read ? Deferred::Kind::WarmRead
                                         : Deferred::Kind::WarmWrite,
                                 addr, nullptr, nullptr, now_, {}, this});
        }
        if (chunk > 1) seen += gen_of(line);
      }
      if (chunk > 1) {
        // Generations only grow, so an unchanged sum proves no access of
        // the first iteration killed an op's line. The first iteration also
        // left the ops' lines most recently used in op order, which is where
        // repeating it would leave them: the repeat hits need no LRU touch.
        std::uint64_t still = 0;
        for (unsigned j = 0; j < r.num_ops; ++j) {
          const RunOp& op = r.ops[j];
          if (op.kind == RunOp::Kind::Compute) continue;
          still += gen_of((op.base + Addr{r.idx} * op.stride) & line_mask_);
        }
        if (still != seen) chunk = 1;
        for (unsigned j = 0; j < r.num_ops && chunk > 1; ++j) {
          const RunOp& op = r.ops[j];
          if (op.kind == RunOp::Kind::Compute) continue;
          count_hits(op.kind == RunOp::Kind::Read, chunk - 1);
        }
      }
      // Advance the local clock per chunk so real accesses carry the same
      // timestamps a line-capped batch sequence would have issued.
      buckets_.cpu += chunk * per_iter;
      now_ += chunk * per_iter;
      r.idx += static_cast<std::uint32_t>(chunk);
      remaining -= chunk;
    }
  } else {
    buckets_.cpu += k * per_iter;
    now_ += k * per_iter;
    r.idx += static_cast<std::uint32_t>(k);
  }
  if (mem_per_iter != 0) sampling_->on_refs(k * mem_per_iter, now_);
  progressed = true;
  if (sampling_->yield_due()) [[unlikely]] {
    resume_at = now_;
    return false;
  }
  return check_slice(resume_at);
}

Proc::RunAwaiter Proc::run(const RunOp* ops, unsigned num_ops,
                           std::uint32_t count) {
  if (num_ops > kMaxRunOps) {
    throw std::invalid_argument("Proc::run: more than kMaxRunOps ops");
  }
  RunState& r = run_;
  r.num_ops = num_ops;
  std::copy(ops, ops + num_ops, r.ops.begin());
  r.pc = 0;
  r.idx = 0;
  r.count = count;
  r.active = true;
  RunAwaiter aw{this};
  aw.ready = run_step(aw.resume_at);
  if (aw.ready) r.active = false;
  return aw;
}

Proc::RunAwaiter Proc::run(std::initializer_list<RunOp> ops,
                           std::uint32_t count) {
  return run(ops.begin(), static_cast<unsigned>(ops.size()), count);
}

Proc::RunAwaiter Proc::run(Addr base, Addr stride, std::uint32_t count,
                           bool is_write, Cycles compute_per_ref) {
  const RunOp access =
      is_write ? RunOp::write(base, stride) : RunOp::read(base, stride);
  if (compute_per_ref != 0) {
    return run({access, RunOp::compute(compute_per_ref)}, count);
  }
  return run({access}, count);
}

bool Proc::BarrierAwaiter::await_ready() const {
  // Parallel windows: every arrival defers — barrier state is coordinator-
  // only, and even the would-be last arriver cannot know it is last until
  // all partitions quiesce at the boundary.
  if (p->outbox_ != nullptr) return false;
  Barrier& bar = *b;
  if (bar.arrived_ + 1 < bar.participants_) return false;
  // Last arriver: release everyone at (no earlier than) our current time.
  const Cycles release = p->now_;
  if (p->obs_ != nullptr) p->obs_->on_barrier_arrive(p->id_, b, release);
  const unsigned released = static_cast<unsigned>(bar.waiters_.size()) + 1;
  for (auto& w : bar.waiters_) {
    const Cycles t = std::max(release, w.arrival);
    w.p->mutable_buckets().sync += t - w.arrival;
    w.p->schedule_resume(t, w.h);
  }
  bar.waiters_.clear();
  bar.arrived_ = 0;
  ++bar.generations_;
  if (p->obs_ != nullptr) p->obs_->on_barrier_release(b, released, release);
  return true;
}

void Proc::BarrierAwaiter::await_suspend(std::coroutine_handle<> h) const {
  if (p->outbox_ != nullptr) {
    p->wait_ = WaitInfo{WaitKind::Barrier, b, nullptr, 0, 0, p->now_};
    p->outbox_->push(
        Deferred{Deferred::Kind::BarrierArrive, 0, b, nullptr, p->now_, h, p});
    return;
  }
  Barrier& bar = *b;
  ++bar.arrived_;
  bar.waiters_.push_back(Barrier::Waiter{h, p, p->now_});
  p->wait_ = WaitInfo{WaitKind::Barrier, b, nullptr, 0, 0, p->now_};
  if (p->obs_ != nullptr) p->obs_->on_barrier_arrive(p->id_, b, p->now_);
}

bool Proc::AcquireAwaiter::await_ready() const {
  // Acquisition is a globally visible action: even an uncontended acquire
  // takes a queue round-trip so that other processors at the same simulated
  // time observe the lock as held (otherwise a critical section shorter than
  // the run-ahead quantum could overlap with a cluster-mate's).
  return false;
}

void Proc::AcquireAwaiter::await_suspend(std::coroutine_handle<> h) const {
  if (p->outbox_ != nullptr) {
    p->wait_ = WaitInfo{WaitKind::Lock, nullptr, l, 0, 0, p->now_};
    p->outbox_->push(
        Deferred{Deferred::Kind::LockAcquire, 0, nullptr, l, p->now_, h, p});
    return;
  }
  Lock& lk = *l;
  if (!lk.held_) {
    lk.held_ = true;
    lk.owner_ = p->id();
    ++lk.acquisitions_;
    p->schedule_resume(p->now_, h);
    return;
  }
  ++lk.contended_;
  lk.waiters_.push_back(Lock::Waiter{h, p, p->now_});
  p->wait_ = WaitInfo{WaitKind::Lock, nullptr, l, 0, 0, p->now_};
  if (p->obs_ != nullptr) p->obs_->on_lock_wait(p->id_, l, p->now_);
}

void Proc::release(Lock& l) {
  if (outbox_ != nullptr) {
    // Lock state is coordinator-only in parallel mode; the release takes
    // effect at the boundary. The releaser itself never suspends.
    outbox_->push(
        Deferred{Deferred::Kind::LockRelease, 0, nullptr, &l, now_, {}, this});
    return;
  }
  if (!l.held_) return;
  if (l.waiters_.empty()) {
    l.held_ = false;
    return;
  }
  Lock::Waiter w = l.waiters_.front();
  l.waiters_.pop_front();
  const Cycles t = std::max(now_, w.arrival);
  w.p->mutable_buckets().sync += t - w.arrival;
  l.owner_ = w.p->id();
  ++l.acquisitions_;
  w.p->schedule_resume(t, w.h);
}

// --- Window-boundary execution (coordinator; every partition quiescent) ----

void Proc::finish_deferred(const Deferred& d, Cycles floor) {
  switch (d.kind) {
    case Deferred::Kind::Read: finish_read(d, floor); break;
    case Deferred::Kind::Write: finish_write(d, floor); break;
    case Deferred::Kind::BarrierArrive: finish_barrier_arrive(d, floor); break;
    case Deferred::Kind::LockAcquire: finish_lock_acquire(d, floor); break;
    case Deferred::Kind::LockRelease: finish_lock_release(d, floor); break;
    case Deferred::Kind::WarmRead:
    case Deferred::Kind::WarmWrite: finish_warm(d); break;
  }
}

void Proc::finish_warm(const Deferred& d) {
  // Functional mode is still on (the coordinator flips regimes only after
  // the boundary drain), so this is exactly the access warming would have
  // made inline: state and counters through the full protocol path, no
  // timing, no MSHRs. The hint is installed under the *current* generation
  // — earlier commits of this very drain may have bumped it.
  const AccessResult r = d.kind == Deferred::Kind::WarmRead
                             ? coh_->read(id_, d.addr, d.t)
                             : coh_->write(id_, d.addr, d.t);
  learn_warm(d.addr & line_mask_, r.hint);
}

void Proc::finish_read(const Deferred& d, Cycles floor) {
  // Re-issue the FULL read at its original time: an earlier boundary op of
  // the same drain (a same-cluster fill, a peer's upgrade) may have changed
  // what this access sees, and the full path classifies it correctly —
  // including Hit/Merge against state another deferred op just created.
  const AccessResult r = coh_->read(id_, d.addr, d.t);
  learn(d.addr & line_mask_, r.hint);
  const Cycles hit = access_cost();
  Cycles done;
  bool merge = false;
  switch (r.kind) {
    case AccessResult::Kind::Hit:
      buckets_.cpu += hit;
      done = d.t + hit;
      break;
    case AccessResult::Kind::Merge: {
      buckets_.cpu += hit;
      const Cycles issue_done = d.t + hit;
      const Cycles stall = r.ready_at > issue_done ? r.ready_at - issue_done : 0;
      buckets_.merge += stall;
      done = issue_done + stall;
      merge = true;
      break;
    }
    default:  // ReadMiss / NearHit
      buckets_.cpu += hit;
      buckets_.load += r.latency;
      done = d.t + hit + r.latency;
      break;
  }
  // The outcome was only determined at the boundary: resume no earlier than
  // the next window, the gap charged to the bucket the stall belongs to.
  const Cycles res = std::max(done, floor);
  (merge ? buckets_.merge : buckets_.load) += res - done;
  now_ = res;
  wait_ = WaitInfo{WaitKind::Memory, nullptr, nullptr, d.addr, res, d.t};
  queue_->schedule_resume(res, this, d.h);
}

void Proc::finish_write(const Deferred& d, Cycles floor) {
  const AccessResult r = coh_->write(id_, d.addr, d.t);
  learn(d.addr & line_mask_, r.hint);
  // Store issue occupies the cache for one access; miss/upgrade latency is
  // hidden by the store buffer exactly as on the inline path.
  const Cycles cost = access_cost();
  buckets_.cpu += cost;
  const Cycles done = d.t + cost;
  const Cycles res = std::max(done, floor);
  buckets_.load += res - done;
  now_ = res;
  wait_ = WaitInfo{WaitKind::Memory, nullptr, nullptr, d.addr, res, d.t};
  queue_->schedule_resume(res, this, d.h);
}

void Proc::finish_barrier_arrive(const Deferred& d, Cycles floor) {
  Barrier& bar = *d.barrier;
  if (bar.arrived_ + 1 < bar.participants_) {
    ++bar.arrived_;
    bar.waiters_.push_back(Barrier::Waiter{d.h, this, d.t});
    return;  // wait_ was set at suspension; stays until release
  }
  // Last arrival of the generation: release everyone. Waiters resume at the
  // latest of the release time, their own arrival, and the window floor.
  const Cycles release = d.t;
  for (auto& w : bar.waiters_) {
    const Cycles t = std::max(std::max(release, w.arrival), floor);
    w.p->mutable_buckets().sync += t - w.arrival;
    w.p->queue_->schedule_resume(t, w.p, w.h);
  }
  bar.waiters_.clear();
  bar.arrived_ = 0;
  ++bar.generations_;
  const Cycles t = std::max(release, floor);
  buckets_.sync += t - d.t;
  now_ = t;
  queue_->schedule_resume(t, this, d.h);
}

void Proc::finish_lock_acquire(const Deferred& d, Cycles floor) {
  Lock& lk = *d.lock;
  if (!lk.held_) {
    lk.held_ = true;
    lk.owner_ = id_;
    ++lk.acquisitions_;
    const Cycles t = std::max(d.t, floor);
    buckets_.sync += t - d.t;
    now_ = t;
    queue_->schedule_resume(t, this, d.h);
    return;
  }
  ++lk.contended_;
  lk.waiters_.push_back(Lock::Waiter{d.h, this, d.t});
  // wait_ was set at suspension; stays until the owner releases.
}

void Proc::finish_lock_release(const Deferred& d, Cycles floor) {
  Lock& lk = *d.lock;
  if (!lk.held_) return;
  if (lk.waiters_.empty()) {
    lk.held_ = false;
    return;
  }
  Lock::Waiter w = lk.waiters_.front();
  lk.waiters_.pop_front();
  const Cycles t = std::max(std::max(d.t, w.arrival), floor);
  w.p->mutable_buckets().sync += t - w.arrival;
  lk.owner_ = w.p->id();
  ++lk.acquisitions_;
  w.p->queue_->schedule_resume(t, w.p, w.h);
}

}  // namespace csim
