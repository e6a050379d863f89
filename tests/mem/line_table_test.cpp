// LineTable / LineSet: the dense line-indexed tables behind the directory,
// the attraction memories and the cold-line set — line shifts, growth past
// the constructor's footprint, erase and re-insert, ordered iteration and
// size accounting — plus cold-miss counting for a line past the footprint
// in both memory organizations.
#include "src/mem/line_table.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/mem/clustered_memory.hpp"
#include "src/mem/coherence.hpp"

namespace csim {
namespace {

struct Rec {
  std::uint64_t value = 0;
  bool flag = false;

 private:
  template <typename>
  friend class csim::LineTable;  // qualified: Rec is in an unnamed namespace
  bool present_ = false;
};

std::vector<Addr> lines_of(const LineTable<Rec>& t) {
  std::vector<Addr> out;
  t.for_each([&](Addr line, const Rec&) { out.push_back(line); });
  return out;
}

TEST(LineTable, NonDefaultLineShiftsIndexWholeLines) {
  for (const unsigned lb : {16u, 128u, 256u}) {
    SCOPED_TRACE(lb);
    LineTable<Rec> t(lb, 8);
    t.insert(0).value = 1;
    t.insert(Addr{3} * lb).value = 3;
    // Neighbouring lines stay distinct: a wrong shift would alias them.
    EXPECT_EQ(t.find(lb), nullptr);
    EXPECT_EQ(t.find(Addr{2} * lb), nullptr);
    EXPECT_EQ(t.find(Addr{4} * lb), nullptr);
    ASSERT_NE(t.find(Addr{3} * lb), nullptr);
    EXPECT_EQ(t.find(Addr{3} * lb)->value, 3u);
    EXPECT_EQ(t.find(0)->value, 1u);
    EXPECT_EQ(lines_of(t), (std::vector<Addr>{0, Addr{3} * lb}));
    EXPECT_EQ(t.size(), 2u);
  }
}

TEST(LineTable, LinesPastTheFootprintGrowTheTable) {
  LineTable<Rec> t(64, 4);  // lines [0, 256)
  t.insert(0x40).value = 7;
  // Lookups past the end create nothing.
  EXPECT_EQ(t.find(0x100000), nullptr);
  EXPECT_FALSE(t.contains(0x100000));
  EXPECT_FALSE(t.erase(0x100000));
  EXPECT_EQ(t.size(), 1u);
  // insert() past the end grows, keeping what was there.
  Rec& far = t.insert(0x100000);
  EXPECT_EQ(far.value, 0u);
  far.value = 9;
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(0x40)->value, 7u);
  EXPECT_EQ(t.find(0x100000)->value, 9u);
  EXPECT_EQ(t.find(0x100040), nullptr);
  EXPECT_EQ(t.find(0xffc0), nullptr);
  EXPECT_EQ(lines_of(t), (std::vector<Addr>{0x40, 0x100000}));
}

TEST(LineTable, EraseThenReinsertStartsFromADefaultRecord) {
  LineTable<Rec> t(64, 16);
  Rec& r = t.insert(0x80);
  r.value = 5;
  r.flag = true;
  (void)t.insert(0xc0);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.erase(0x80));
  EXPECT_FALSE(t.erase(0x80));  // already gone
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.contains(0x80));
  EXPECT_TRUE(t.contains(0xc0));  // erase moves no other record
  Rec& again = t.insert(0x80);
  EXPECT_EQ(again.value, 0u);
  EXPECT_FALSE(again.flag);
  EXPECT_EQ(t.size(), 2u);
}

TEST(LineTable, SizeCountsEachPresentLineOnce) {
  LineTable<Rec> t(64, 16);
  EXPECT_EQ(t.size(), 0u);
  t.insert(0x40).value = 1;
  t.insert(0x40).value = 2;  // a second insert() of a present line adds nothing
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(0x40)->value, 2u);
  // A present record whose fields are all default is still present.
  (void)t.insert(0x200);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.contains(0x200));
  EXPECT_TRUE(t.erase(0x200));
  EXPECT_TRUE(t.erase(0x40));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(lines_of(t).empty());
}

TEST(LineTable, ForEachVisitsPresentLinesInLineOrder) {
  LineTable<Rec> t(64, 4);
  for (const Addr line : {Addr{0x2000}, Addr{0x40}, Addr{0x400}, Addr{0xc0}}) {
    t.insert(line).value = line;
  }
  t.erase(0x400);
  std::vector<Addr> seen;
  t.for_each([&](Addr line, const Rec& r) {
    seen.push_back(line);
    EXPECT_EQ(r.value, line);
  });
  EXPECT_EQ(seen, (std::vector<Addr>{0x40, 0xc0, 0x2000}));
}

TEST(LineSet, NonDefaultLineShiftsIndexWholeLines) {
  for (const unsigned lb : {16u, 128u, 256u}) {
    SCOPED_TRACE(lb);
    LineSet s(lb, 8);
    EXPECT_TRUE(s.insert(Addr{3} * lb));
    EXPECT_TRUE(s.insert(0));
    // Neighbouring lines stay distinct: a wrong shift would alias them.
    EXPECT_EQ(s.lines(), (std::vector<Addr>{0, Addr{3} * lb}));
    EXPECT_TRUE(s.insert(Addr{2} * lb));
    EXPECT_TRUE(s.insert(Addr{4} * lb));
    EXPECT_FALSE(s.insert(Addr{3} * lb));
    EXPECT_EQ(s.lines(),
              (std::vector<Addr>{0, Addr{2} * lb, Addr{3} * lb, Addr{4} * lb}));
  }
}

TEST(LineSet, InsertReportsNewLinesOnceAndGrowsPastTheFootprint) {
  LineSet s(64, 4);  // lines [0, 256)
  EXPECT_TRUE(s.insert(0xc0));
  EXPECT_FALSE(s.insert(0xc0));
  EXPECT_TRUE(s.insert(0x100000));
  EXPECT_FALSE(s.insert(0x100000));
  EXPECT_FALSE(s.insert(0xc0));  // growth keeps earlier members
  EXPECT_TRUE(s.insert(0x40));
  EXPECT_EQ(s.lines(), (std::vector<Addr>{0x40, 0xc0, 0x100000}));
}

// A line past the AddressSpace footprint grows the directory, cold-line set
// and attraction memory; its cold miss must still count exactly once.

TEST(LineTablePastFootprint, SharedCacheCountsOneColdMissPerLine) {
  MachineSpec cfg;
  cfg.num_procs = 2;
  cfg.procs_per_cluster = 1;
  cfg.cache.per_proc_bytes = 64;  // one-line cluster caches
  AddressSpace as;
  const Addr base = as.alloc(4096, "mem");
  const Addr far = base + (Addr{1} << 20);
  CoherenceController coh(cfg, as);
  EXPECT_EQ(coh.read(0, far, 0).kind, AccessResult::Kind::ReadMiss);
  // Evicting `far` drops its directory entry, so the re-read consults the
  // cold-line set again.
  EXPECT_EQ(coh.read(0, base, 1000).kind, AccessResult::Kind::ReadMiss);
  EXPECT_EQ(coh.directory().tracked_lines(), 1u);
  EXPECT_EQ(coh.read(0, far, 2000).kind, AccessResult::Kind::ReadMiss);
  EXPECT_EQ(coh.read(1, far, 3000).kind, AccessResult::Kind::ReadMiss);
  EXPECT_EQ(coh.cluster_counters(0).cold_misses, 2u);  // far, base
  EXPECT_EQ(coh.cluster_counters(1).cold_misses, 0u);
  EXPECT_EQ(coh.cluster_counters(0).read_misses, 3u);
  EXPECT_NO_THROW(coh.audit());
}

TEST(LineTablePastFootprint, SharedMemoryCountsOneColdMissPerLine) {
  MachineSpec cfg;
  cfg.num_procs = 8;
  cfg.procs_per_cluster = 4;
  cfg.cluster_style = ClusterStyle::SharedMemory;
  cfg.cache.per_proc_bytes = 0;
  AddressSpace as;
  const Addr base = as.alloc(4096, "mem");
  const Addr far = base + (Addr{1} << 20);
  ClusteredMemorySystem mem(cfg, as);
  EXPECT_EQ(mem.read(0, far, 0).kind, AccessResult::Kind::ReadMiss);
  EXPECT_TRUE(mem.in_attraction(0, far));
  EXPECT_FALSE(mem.in_attraction(0, far + 64));
  EXPECT_EQ(mem.read(4, far, 1000).kind, AccessResult::Kind::ReadMiss);
  // Cluster 1 takes ownership, purging cluster 0; cluster 0 fetches it back.
  EXPECT_EQ(mem.write(4, far, 2000).kind, AccessResult::Kind::UpgradeMiss);
  EXPECT_FALSE(mem.in_attraction(0, far));
  EXPECT_EQ(mem.read(0, far, 3000).kind, AccessResult::Kind::ReadMiss);
  EXPECT_TRUE(mem.in_attraction(0, far));
  EXPECT_EQ(mem.totals().cold_misses, 1u);
  EXPECT_EQ(mem.totals().read_misses, 3u);
  EXPECT_NO_THROW(mem.audit());
}

}  // namespace
}  // namespace csim
