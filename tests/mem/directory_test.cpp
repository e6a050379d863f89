#include "src/mem/directory.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/mem/mshr.hpp"

namespace csim {
namespace {

TEST(Directory, DefaultsToNotCached) {
  Directory d(64, 0);
  EXPECT_EQ(d.peek(0x1000).state, DirState::NotCached);
  EXPECT_EQ(d.tracked_lines(), 0u);
}

TEST(DirEntry, SharerBitOps) {
  DirEntry e;
  e.add(3);
  e.add(17);
  EXPECT_TRUE(e.has(3));
  EXPECT_TRUE(e.has(17));
  EXPECT_FALSE(e.has(4));
  EXPECT_EQ(e.count(), 2u);
  e.remove(3);
  EXPECT_FALSE(e.has(3));
  EXPECT_EQ(e.count(), 1u);
  EXPECT_EQ(e.owner(), 17u);
}

TEST(Directory, ReplacementHintRemovesSharer) {
  Directory d(64, 0);
  DirEntry& e = d.entry(0x40);
  e.state = DirState::Shared;
  e.add(1);
  e.add(2);
  d.replacement_hint(0x40, 1);
  EXPECT_EQ(d.peek(0x40).state, DirState::Shared);
  EXPECT_FALSE(d.peek(0x40).has(1));
  EXPECT_TRUE(d.peek(0x40).has(2));
}

TEST(Directory, LastSharerHintGoesNotCached) {
  Directory d(64, 0);
  DirEntry& e = d.entry(0x40);
  e.state = DirState::Shared;
  e.add(2);
  d.replacement_hint(0x40, 2);
  EXPECT_EQ(d.peek(0x40).state, DirState::NotCached);
  EXPECT_EQ(d.peek(0x40).count(), 0u);
}

TEST(Directory, ExclusiveEvictionWritesBackHome) {
  Directory d(64, 0);
  DirEntry& e = d.entry(0x80);
  e.state = DirState::Exclusive;
  e.add(5);
  d.replacement_hint(0x80, 5);
  EXPECT_EQ(d.peek(0x80).state, DirState::NotCached);
  EXPECT_EQ(d.peek(0x80).count(), 0u);
}

TEST(Directory, HintForUntrackedLineIsNoop) {
  Directory d(64, 0);
  d.replacement_hint(0xdead00, 1);
  EXPECT_EQ(d.tracked_lines(), 0u);
}

TEST(Directory, LinesInState) {
  Directory d(64, 0);
  d.entry(0x40).state = DirState::Shared;
  d.entry(0x80).state = DirState::Exclusive;
  d.entry(0xc0).state = DirState::Shared;
  EXPECT_EQ(d.lines_in_state(DirState::Shared).size(), 2u);
  EXPECT_EQ(d.lines_in_state(DirState::Exclusive).size(), 1u);
}

TEST(Directory, NonDefaultLineShiftsIndexWholeLines) {
  for (const unsigned lb : {16u, 128u, 256u}) {
    SCOPED_TRACE(lb);
    Directory d(lb, 8);
    d.entry(0).state = DirState::Shared;
    d.entry(0).add(1);
    d.entry(Addr{3} * lb).state = DirState::Exclusive;
    d.entry(Addr{3} * lb).add(2);
    // Neighbouring lines stay distinct: a wrong shift would alias them.
    EXPECT_EQ(d.peek(lb).state, DirState::NotCached);
    EXPECT_EQ(d.peek(Addr{2} * lb).state, DirState::NotCached);
    EXPECT_EQ(d.peek(Addr{3} * lb).owner(), 2u);
    EXPECT_TRUE(d.peek(0).has(1));
    EXPECT_EQ(d.find(lb), nullptr);
    EXPECT_EQ(d.lines_in_state(DirState::Exclusive),
              (std::vector<Addr>{Addr{3} * lb}));
    EXPECT_EQ(d.tracked_lines(), 2u);
  }
}

TEST(Directory, LinesBeyondTheFootprintGrowTheTable) {
  Directory d(64, 4);  // lines [0, 256)
  d.entry(0x40).state = DirState::Shared;
  d.entry(0x40).add(3);
  // Probing past the end creates nothing.
  EXPECT_EQ(d.find(0x100000), nullptr);
  EXPECT_EQ(d.peek(0x100000).state, DirState::NotCached);
  d.replacement_hint(0x100000, 3);
  EXPECT_EQ(d.tracked_lines(), 1u);
  // entry() past the end grows, keeping what was tracked before.
  DirEntry& far = d.entry(0x100000);
  EXPECT_EQ(far.state, DirState::NotCached);
  EXPECT_EQ(far.sharers, 0u);
  far.state = DirState::Exclusive;
  far.add(5);
  EXPECT_EQ(d.tracked_lines(), 2u);
  EXPECT_TRUE(d.peek(0x40).has(3));
  EXPECT_EQ(d.peek(0x100000).owner(), 5u);
  EXPECT_EQ(d.peek(0x100040).state, DirState::NotCached);
  EXPECT_EQ(d.find(0x100040), nullptr);
}

TEST(Directory, TrackedLinesCountsHintDropAndReentry) {
  Directory d(64, 16);
  DirEntry& e = d.entry(0x80);
  e.state = DirState::Shared;
  e.add(1);
  e.add(2);
  (void)d.entry(0x80);  // a second entry() of a tracked line adds nothing
  EXPECT_EQ(d.tracked_lines(), 1u);
  (void)d.entry(0xc0);  // created NOT_CACHED, still tracked until a hint
  EXPECT_EQ(d.tracked_lines(), 2u);
  EXPECT_NE(d.find(0xc0), nullptr);

  d.replacement_hint(0x80, 1);  // one sharer left: stays tracked
  EXPECT_EQ(d.tracked_lines(), 2u);
  d.replacement_hint(0x80, 2);  // last copy gone: dropped
  EXPECT_EQ(d.tracked_lines(), 1u);
  EXPECT_EQ(d.find(0x80), nullptr);
  d.replacement_hint(0x80, 2);  // hint for a dropped line is a no-op
  EXPECT_EQ(d.tracked_lines(), 1u);

  // Re-entry starts from a clean NOT_CACHED entry.
  DirEntry& again = d.entry(0x80);
  EXPECT_EQ(again.state, DirState::NotCached);
  EXPECT_EQ(again.sharers, 0u);
  EXPECT_EQ(d.tracked_lines(), 2u);
  again.state = DirState::Exclusive;
  again.add(4);
  d.replacement_hint(0x80, 4);  // owner eviction: writeback, dropped
  EXPECT_EQ(d.tracked_lines(), 1u);
  EXPECT_EQ(d.peek(0x80).sharers, 0u);
}

TEST(Directory, ForEachVisitsTrackedLinesInLineOrder) {
  Directory d(64, 4);
  for (const Addr line : {Addr{0x2000}, Addr{0x40}, Addr{0x400}, Addr{0xc0}}) {
    d.entry(line).state = DirState::Shared;
    d.entry(line).add(0);
  }
  d.replacement_hint(0x400, 0);  // dropped lines are not visited
  (void)d.entry(0x80);           // tracked NOT_CACHED lines are
  std::vector<Addr> seen;
  d.for_each([&](Addr line, const DirEntry& e) {
    seen.push_back(line);
    EXPECT_EQ(e.state, line == 0x80 ? DirState::NotCached : DirState::Shared);
  });
  EXPECT_EQ(seen, (std::vector<Addr>{0x40, 0x80, 0xc0, 0x2000}));
}

TEST(Mshr, AllocateFindRelease) {
  MshrTable t;
  EXPECT_EQ(t.find(0x40), nullptr);
  t.allocate(0x40, MshrEntry{100});
  ASSERT_NE(t.find(0x40), nullptr);
  EXPECT_EQ(t.find(0x40)->fill_time, 100u);
  const auto e = t.release(0x40);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(t.find(0x40), nullptr);
  EXPECT_FALSE(t.release(0x40).has_value());
}

TEST(Mshr, AllocateReplacesStaleEntry) {
  MshrTable t;
  t.allocate(0x40, MshrEntry{100});
  t.allocate(0x40, MshrEntry{200});
  ASSERT_NE(t.find(0x40), nullptr);
  EXPECT_EQ(t.find(0x40)->fill_time, 200u);
  EXPECT_EQ(t.size(), 1u);
}

}  // namespace
}  // namespace csim
