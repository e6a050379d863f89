// TracedMemory: a forwarding MemorySystem decorator that times every call
// into the memory layer from outside the simulator (perfbench/README.md).
//
// It wraps the real organization (CoherenceController or
// ClusteredMemorySystem) and is passed to Simulator::run as the memory
// override. Every read()/write() is timed with steady_clock and bucketed by
// the AccessResult kind it returned — or as "functional" while the sampling
// controller holds the memory system in functional-warming mode.
//
// The processor hit filter stays on: generation_addr/touch_cache forward to
// the inner system, and hot_counters hands the processors per-cluster
// counters owned by the decorator. Filtered hits therefore land here, which
// counts them independently of the slow-path calls; fold() adds them into
// the inner system's counters (through the inner's own hot_counters
// pointer) before anything reads those counters, so the result — and its
// digest — is exactly what the untraced run produces.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/mem/memory_system.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class TracedMemory final : public csim::MemorySystem {
 public:
  static constexpr std::size_t kKinds = 6;  ///< AccessResult::Kind values

  struct Bucket {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;  ///< summed host time, clock reads included
  };

  TracedMemory(csim::MemorySystem& inner, unsigned clusters)
      : inner_(inner), hot_(clusters), inner_hot_(clusters) {
    for (unsigned c = 0; c < clusters; ++c) {
      inner_hot_[c] = inner_.hot_counters(c);
    }
  }

  csim::AccessResult read(csim::ProcId p, csim::Addr a,
                          csim::Cycles now) override {
    const auto t0 = Clock::now();
    const csim::AccessResult r = inner_.read(p, a, now);
    record(r, t0, Clock::now());
    return r;
  }

  csim::AccessResult write(csim::ProcId p, csim::Addr a,
                           csim::Cycles now) override {
    const auto t0 = Clock::now();
    const csim::AccessResult r = inner_.write(p, a, now);
    record(r, t0, Clock::now());
    return r;
  }

  [[nodiscard]] const csim::MissCounters& cluster_counters(
      csim::ClusterId c) const override {
    fold();
    return inner_.cluster_counters(c);
  }

  [[nodiscard]] csim::MissCounters totals() const override {
    fold();
    return inner_.totals();
  }

  void audit() const override {
    fold();
    const auto t0 = Clock::now();
    inner_.audit();
    audit_s_ += seconds_between(t0, Clock::now());
  }

  [[nodiscard]] const std::uint64_t* generation_addr(
      csim::ClusterId c) const noexcept override {
    return inner_.generation_addr(c);
  }

  [[nodiscard]] csim::CacheStorage* touch_cache(csim::ProcId p) noexcept override {
    return inner_.touch_cache(p);
  }

  [[nodiscard]] csim::MissCounters* hot_counters(
      csim::ClusterId c) noexcept override {
    return inner_hot_[c] != nullptr ? &hot_[c] : nullptr;
  }

  void set_functional(bool on) override {
    const auto t0 = Clock::now();
    inner_.set_functional(on);
    const auto t1 = Clock::now();
    mode_s_ += seconds_between(t0, t1);
    if (on && !functional_) warm_start_ = t1;
    if (!on && functional_) warm_s_ += seconds_between(warm_start_, t0);
    functional_ = on;
  }

  bool capture_warm_state(csim::WarmState& out) const override {
    fold();
    const auto t0 = Clock::now();
    const bool ok = inner_.capture_warm_state(out);
    mode_s_ += seconds_between(t0, Clock::now());
    return ok;
  }

  bool restore_warm_state(const csim::WarmState& ws) override {
    const auto t0 = Clock::now();
    const bool ok = inner_.restore_warm_state(ws);
    mode_s_ += seconds_between(t0, Clock::now());
    return ok;
  }

  /// Closes a warming interval still open when the run returned (a sampled
  /// run may warm to its end). Call once, right after Simulator::run.
  void finish(Clock::time_point run_end) {
    if (functional_) warm_s_ += seconds_between(warm_start_, run_end);
    functional_ = false;
  }

  [[nodiscard]] const Bucket& kind(csim::AccessResult::Kind k) const {
    return by_kind_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] const Bucket& functional() const { return functional_bucket_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t filter_hits() const {
    fold();
    return filter_hits_;
  }
  /// Host seconds inside read()/write(), audit() and the mode/warm-state calls.
  [[nodiscard]] double self_s() const {
    return static_cast<double>(access_ns_) * 1e-9 + audit_s_ + mode_s_;
  }
  [[nodiscard]] double audit_s() const { return audit_s_; }
  [[nodiscard]] double mode_s() const { return mode_s_; }
  [[nodiscard]] double warm_s() const { return warm_s_; }

 private:
  void record(const csim::AccessResult& r, Clock::time_point t0,
              Clock::time_point t1) {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    Bucket& b = functional_ ? functional_bucket_
                            : by_kind_[static_cast<std::size_t>(r.kind)];
    ++b.count;
    b.ns += ns;
    ++calls_;
    access_ns_ += ns;
  }

  /// Moves filter-served counts into the inner system's counters.
  void fold() const {
    for (std::size_t c = 0; c < hot_.size(); ++c) {
      csim::MissCounters& h = hot_[c];
      if (inner_hot_[c] == nullptr || (h.reads == 0 && h.writes == 0)) continue;
      filter_hits_ += h.reads + h.writes;
      *inner_hot_[c] += h;
      h = csim::MissCounters{};
    }
  }

  csim::MemorySystem& inner_;
  // Filter-served hits since the last fold(). mutable: the const readers
  // (cluster_counters, totals, audit) fold them in before the inner system
  // is observed.
  mutable std::vector<csim::MissCounters> hot_;
  std::vector<csim::MissCounters*> inner_hot_;  // inner's counters, or null
  mutable std::uint64_t filter_hits_ = 0;

  std::array<Bucket, kKinds> by_kind_{};
  Bucket functional_bucket_;
  std::uint64_t calls_ = 0;
  std::uint64_t access_ns_ = 0;
  mutable double audit_s_ = 0;
  mutable double mode_s_ = 0;
  double warm_s_ = 0;
  bool functional_ = false;
  Clock::time_point warm_start_{};
};

}  // namespace perfbench
