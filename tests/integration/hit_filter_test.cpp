// The processor's generation-tagged hit filter (docs/PERFORMANCE.md) is a
// pure fast path: short-circuiting a repeat hit must produce bit-identical
// results to routing every access through the memory system. These tests
// prove that by running the same program twice — once normally (filter
// eligible) and once through a forwarding decorator whose default
// generation_addr()/hot_counters() return nullptr, which disables the filter
// — and comparing obs::result_digest over every counter and bucket.
//
// Both organizations are covered in both contention modes, over all nine
// apps, in full-detail and in interval-sampled runs (the latter exercise the
// warming-only hit table and batched warm retirement). Under contention the
// shared-cache organization disables the fast path itself (port queues must
// observe every access), while the shared-memory organization keeps it;
// either way the digests must match.
//
// The filter's validity rule rests on the memory systems' striped kill
// hooks: a kill of line A must bump generation stripe gen_stripe(A) of the
// cluster that lost or downgraded A. The StripedGenerations tests pin that
// for both organizations — and that nothing else moves, which is what lets
// hints for unrelated lines survive.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/apps/app.hpp"
#include "src/core/simulator.hpp"
#include "src/mem/clustered_memory.hpp"
#include "src/mem/coherence.hpp"
#include "src/obs/manifest.hpp"

namespace csim {
namespace {

/// Forwards every access to the real memory system for the configuration but
/// inherits the MemorySystem defaults for generation_addr()/hot_counters(),
/// so processors never engage the hit filter.
class FilterOffMemory final : public MemorySystem {
 public:
  FilterOffMemory(const MachineSpec& cfg, const AddressSpace& as) {
    if (cfg.cluster_style == ClusterStyle::SharedMemory) {
      inner_ = std::make_unique<ClusteredMemorySystem>(cfg, as);
    } else {
      inner_ = std::make_unique<CoherenceController>(cfg, as);
    }
  }
  AccessResult read(ProcId p, Addr a, Cycles now) override {
    return inner_->read(p, a, now);
  }
  AccessResult write(ProcId p, Addr a, Cycles now) override {
    return inner_->write(p, a, now);
  }
  const MissCounters& cluster_counters(ClusterId c) const override {
    return inner_->cluster_counters(c);
  }
  MissCounters totals() const override { return inner_->totals(); }
  void audit() const override { inner_->audit(); }
  void set_functional(bool on) override { inner_->set_functional(on); }

 private:
  std::unique_ptr<MemorySystem> inner_;
};

MachineSpecBuilder builder(ClusterStyle style, bool contention) {
  ContentionSpec spec;
  spec.enabled = contention;
  return MachineSpecBuilder{}
      .procs(64)
      .procs_per_cluster(8)
      .style(style)
      .cache_kb(16)
      .contention(spec);
}

MachineSpec config(ClusterStyle style, bool contention) {
  return builder(style, contention).build();
}

SimResult run_with_filter(const std::string& app, const MachineSpec& cfg) {
  auto prog = make_app(app, ProblemScale::Test);
  return simulate(*prog, cfg);
}

SimResult run_without_filter(const std::string& app, const MachineSpec& cfg) {
  auto prog = make_app(app, ProblemScale::Test);
  // The decorator's inner system needs the program's address-space layout,
  // which Simulator::run builds internally. Allocation is deterministic, so
  // a pre-run setup() into our own AddressSpace reproduces the placements
  // the in-run setup() will make (the same seam src/trace/trace.cpp uses).
  AddressSpace as;
  prog->setup(as, cfg);
  FilterOffMemory mem(cfg, as);
  Simulator sim(cfg);
  return sim.run(*prog, &mem);
}

std::uint64_t digest_with_filter(const std::string& app,
                                 const MachineSpec& cfg) {
  return obs::result_digest(run_with_filter(app, cfg));
}

std::uint64_t digest_without_filter(const std::string& app,
                                    const MachineSpec& cfg) {
  return obs::result_digest(run_without_filter(app, cfg));
}

/// Sampled runs compare everything the memory side decides — every counter,
/// per cluster — plus the run's length and event count. Per-processor time
/// buckets are left out: batched warm retirement (filter on) can move a run
/// element's trailing computes across a warm -> detail boundary that
/// per-reference warming (filter off) retires after it, a known timing-split
/// defect of the batching (ROADMAP) that no hit-filter decision affects.
void expect_same_memory_side(const std::string& app, const MachineSpec& cfg) {
  const SimResult on = run_with_filter(app, cfg);
  const SimResult off = run_without_filter(app, cfg);
  EXPECT_EQ(on.totals, off.totals) << app;
  EXPECT_EQ(on.per_cluster, off.per_cluster) << app;
  EXPECT_EQ(on.wall_time, off.wall_time) << app;
  EXPECT_EQ(on.events, off.events) << app;
  EXPECT_EQ(on.detailed_refs, off.detailed_refs) << app;
}

class HitFilterEquivalence
    : public ::testing::TestWithParam<std::tuple<ClusterStyle, bool>> {};

TEST_P(HitFilterEquivalence, FilteredRunMatchesUnfilteredRun) {
  const auto [style, contention] = GetParam();
  const MachineSpec cfg = config(style, contention);
  for (const std::string& app : app_names()) {
    EXPECT_EQ(digest_with_filter(app, cfg), digest_without_filter(app, cfg))
        << app;
  }
}

TEST_P(HitFilterEquivalence, SampledFilteredRunMatchesUnfilteredRun) {
  // Warming retires through the warming-only hit table and batched run
  // retirement when the filter is on, and through per-reference protocol
  // calls when it is off.
  const auto [style, contention] = GetParam();
  const MachineSpec cfg =
      builder(style, contention).sample(4096, 4096, 16384).build();
  for (const std::string& app : app_names()) expect_same_memory_side(app, cfg);
}

TEST(HitFilterWarming, ConflictEvictionsInsideABatchStayExact) {
  // Ocean's stencil elements touch many lines; in direct-mapped 4 KB private
  // caches they evict each other inside one batched chunk. The batch must
  // see the kill on the evicted line's stripe and fall back to
  // per-reference retirement instead of counting the rest as hits.
  const MachineSpec cfg = MachineSpecBuilder{}
                              .procs(64)
                              .procs_per_cluster(8)
                              .style(ClusterStyle::SharedMemory)
                              .cache_kb(4)
                              .associativity(1)
                              .sample(4096, 4096, 16384)
                              .build();
  expect_same_memory_side("ocean", cfg);
}

TEST_P(HitFilterEquivalence, FilteredRunIsDeterministic) {
  const auto [style, contention] = GetParam();
  const MachineSpec cfg = config(style, contention);
  EXPECT_EQ(digest_with_filter("fft", cfg), digest_with_filter("fft", cfg));
}

INSTANTIATE_TEST_SUITE_P(
    BothOrgsBothContentionModes, HitFilterEquivalence,
    ::testing::Combine(::testing::Values(ClusterStyle::SharedCache,
                                         ClusterStyle::SharedMemory),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<ClusterStyle, bool>>& info) {
      std::string name = std::get<0>(info.param) == ClusterStyle::SharedCache
                             ? "shared_cache"
                             : "shared_memory";
      name += std::get<1>(info.param) ? "_contention" : "_no_contention";
      return name;
    });

}  // namespace
}  // namespace csim

namespace csim {
namespace {

using Stripe = std::pair<ClusterId, std::size_t>;  // (cluster, stripe)

/// Every cluster's generation stripes, flattened in cluster order.
std::vector<std::uint64_t> generations(const MemorySystem& m,
                                       unsigned clusters) {
  std::vector<std::uint64_t> g;
  for (ClusterId c = 0; c < clusters; ++c) {
    const std::uint64_t* base = m.generation_addr(c);
    g.insert(g.end(), base, base + kGenStripes);
  }
  return g;
}

/// The (cluster, stripe) counters that differ between two snapshots; each
/// must have moved by exactly one bump.
std::vector<Stripe> bumped(const std::vector<std::uint64_t>& before,
                           const std::vector<std::uint64_t>& after) {
  std::vector<Stripe> out;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (after[i] != before[i]) {
      EXPECT_EQ(after[i], before[i] + 1) << "stripe " << i;
      out.emplace_back(static_cast<ClusterId>(i / kGenStripes),
                       i % kGenStripes);
    }
  }
  return out;
}

constexpr unsigned kLineShift = 6;  // 64-byte lines (MachineSpec default)

// Two clusters of two processors with tiny direct-mapped caches: lines A
// and B map to the same set, so B evicts A, and sit on different stripes.
class StripedGenerations : public ::testing::TestWithParam<ClusterStyle> {
 protected:
  StripedGenerations() {
    cfg_.num_procs = 4;
    cfg_.procs_per_cluster = 2;  // clusters {0,1}, {2,3}
    cfg_.cluster_style = GetParam();
    cfg_.cache.associativity = 1;
    cfg_.cache.per_proc_bytes = 64;  // 1 line per proc, 2 per shared cache
    base_ = as_.alloc(4096, "mem");
    if (GetParam() == ClusterStyle::SharedMemory) {
      mem_ = std::make_unique<ClusteredMemorySystem>(cfg_, as_);
    } else {
      mem_ = std::make_unique<CoherenceController>(cfg_, as_);
    }
  }
  Addr a() const { return base_; }
  Addr b() const { return base_ + 128; }
  Stripe stripe(ClusterId c, Addr line) const {
    return {c, gen_stripe(line, kLineShift)};
  }
  /// Runs `kill` and returns the stripes it bumped.
  template <typename F>
  std::vector<Stripe> bumps_of(F kill) {
    const auto before = generations(*mem_, 2);
    kill();
    return bumped(before, generations(*mem_, 2));
  }

  MachineSpec cfg_;
  AddressSpace as_;
  Addr base_ = 0;
  std::unique_ptr<MemorySystem> mem_;
};

TEST_P(StripedGenerations, FixtureLinesSitOnDistinctStripes) {
  EXPECT_NE(gen_stripe(a(), kLineShift), gen_stripe(b(), kLineShift));
  EXPECT_NE(mem_->generation_addr(0), nullptr);
  EXPECT_NE(mem_->generation_addr(1), nullptr);
}

TEST_P(StripedGenerations, PlainAccessesBumpNothing) {
  EXPECT_TRUE(bumps_of([&] {
                (void)mem_->read(0, a(), 0);
                (void)mem_->read(0, a(), 1000);
                (void)mem_->write(0, a(), 2000);
                (void)mem_->write(0, a(), 3000);
              }).empty());
}

TEST_P(StripedGenerations, InvalidationBumpsOnlyTheVictimClusterStripe) {
  (void)mem_->read(0, a(), 0);     // cluster 0 shares A
  (void)mem_->read(2, a(), 1000);  // cluster 1 shares A
  EXPECT_EQ(bumps_of([&] { (void)mem_->write(0, a(), 3000); }),
            std::vector<Stripe>{stripe(1, a())});
}

TEST_P(StripedGenerations, DowngradeBumpsOnlyTheOwnerClusterStripe) {
  (void)mem_->write(0, a(), 0);  // cluster 0 owns A
  EXPECT_EQ(bumps_of([&] { (void)mem_->read(2, a(), 1000); }),
            std::vector<Stripe>{stripe(0, a())});
}

TEST_P(StripedGenerations, EvictionBumpsOnlyTheVictimLineStripe) {
  (void)mem_->read(0, a(), 0);
  EXPECT_EQ(bumps_of([&] { (void)mem_->read(0, b(), 1000); }),
            std::vector<Stripe>{stripe(0, a())});
}

INSTANTIATE_TEST_SUITE_P(
    BothOrgs, StripedGenerations,
    ::testing::Values(ClusterStyle::SharedCache, ClusterStyle::SharedMemory),
    [](const ::testing::TestParamInfo<ClusterStyle>& info) {
      return std::string(info.param == ClusterStyle::SharedCache
                             ? "shared_cache"
                             : "shared_memory");
    });

}  // namespace
}  // namespace csim
