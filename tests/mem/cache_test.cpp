#include "src/mem/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <random>
#include <utility>
#include <vector>

namespace csim {
namespace {

constexpr Addr L(unsigned i) { return static_cast<Addr>(i) * 64; }

/// Reference LRU model: one std::list per set, MRU at the front. Infinite
/// caches are a single unbounded list, dumped sorted by line address.
class LruModel {
 public:
  LruModel(std::size_t capacity, unsigned ways, unsigned line_bytes)
      : capacity_(capacity), ways_(ways), line_bytes_(line_bytes),
        sets_(capacity == 0 || ways == 0 ? 1 : capacity / ways) {}

  std::optional<LineState> lookup(Addr line) const {
    const auto& set = sets_[set_of(line)];
    const auto it = find(set, line);
    if (it == set.end()) return std::nullopt;
    return it->second;
  }
  void touch(Addr line) {
    auto& set = sets_[set_of(line)];
    const auto it = find(set, line);
    if (it != set.end()) set.splice(set.begin(), set, it);
  }
  std::optional<Evicted> insert(Addr line, LineState st) {
    auto& set = sets_[set_of(line)];
    std::optional<Evicted> victim;
    const std::size_t cap = ways_ == 0 ? capacity_ : ways_;
    if (capacity_ != 0 && set.size() >= cap) {
      victim = Evicted{set.back().first, set.back().second};
      set.pop_back();
    }
    set.emplace_front(line, st);
    return victim;
  }
  bool set_state(Addr line, LineState st) {
    auto& set = sets_[set_of(line)];
    const auto it = find(set, line);
    if (it == set.end()) return false;
    it->second = st;
    return true;
  }
  std::optional<LineState> erase(Addr line) {
    auto& set = sets_[set_of(line)];
    const auto it = find(set, line);
    if (it == set.end()) return std::nullopt;
    const LineState st = it->second;
    set.erase(it);
    return st;
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& set : sets_) n += set.size();
    return n;
  }
  std::vector<std::pair<Addr, LineState>> dump() const {
    std::vector<std::pair<Addr, LineState>> out;
    for (const auto& set : sets_) out.insert(out.end(), set.rbegin(), set.rend());
    if (capacity_ == 0) std::sort(out.begin(), out.end());
    return out;
  }

 private:
  using Set = std::list<std::pair<Addr, LineState>>;
  static Set::const_iterator find(const Set& set, Addr line) {
    return std::find_if(set.begin(), set.end(),
                        [line](const auto& e) { return e.first == line; });
  }
  static Set::iterator find(Set& set, Addr line) {
    return std::find_if(set.begin(), set.end(),
                        [line](const auto& e) { return e.first == line; });
  }
  std::size_t set_of(Addr line) const {
    return sets_.size() == 1 ? 0 : (line / line_bytes_) % sets_.size();
  }

  std::size_t capacity_;
  unsigned ways_;
  unsigned line_bytes_;
  std::vector<Set> sets_;
};

bool same(const std::optional<Evicted>& a, const std::optional<Evicted>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->line == b->line && a->state == b->state);
}

/// Drives `ops` random operations against CacheStorage and the model over a
/// pool of 3x capacity lines (hits, misses, evictions and erases all occur),
/// comparing every result, then the final LRU dump.
void check_against_model(std::size_t capacity, unsigned ways,
                         unsigned line_bytes, unsigned ops) {
  CacheStorage c(capacity, ways, line_bytes);
  LruModel m(capacity, ways, line_bytes);
  std::mt19937 rng(capacity * 131 + ways * 7 + line_bytes);
  const unsigned pool =
      static_cast<unsigned>(3 * (capacity == 0 ? 64 : capacity));
  auto pick = [&] {
    return static_cast<Addr>(rng() % pool) * line_bytes + 0x1000;
  };
  auto pick_state = [&] {
    return rng() % 2 ? LineState::Exclusive : LineState::Shared;
  };
  for (unsigned i = 0; i < ops; ++i) {
    const Addr line = pick();
    switch (rng() % 6) {
      case 0:
      case 1:
        if (!m.lookup(line)) {
          const LineState st = pick_state();
          ASSERT_TRUE(same(c.insert(line, st), m.insert(line, st)))
              << "victim differs at op " << i;
        }
        break;
      case 2: {
        const auto want = m.lookup(line);
        m.touch(line);
        ASSERT_EQ(c.access(line), want) << "op " << i;
        break;
      }
      case 3:
        c.touch(line);
        m.touch(line);
        ASSERT_EQ(c.lookup(line), m.lookup(line)) << "op " << i;
        break;
      case 4: {
        const LineState st = pick_state();
        ASSERT_EQ(c.set_state(line, st), m.set_state(line, st)) << "op " << i;
        break;
      }
      case 5:
        ASSERT_EQ(c.erase(line), m.erase(line)) << "op " << i;
        break;
    }
    ASSERT_EQ(c.size(), m.size()) << "op " << i;
  }
  EXPECT_EQ(c.dump_lru_order(), m.dump());
}

TEST(CacheStorage, InfiniteNeverEvicts) {
  CacheStorage c(0, 0);
  for (unsigned i = 0; i < 10000; ++i) {
    EXPECT_FALSE(c.insert(L(i), LineState::Shared).has_value());
  }
  EXPECT_EQ(c.size(), 10000u);
  EXPECT_TRUE(c.infinite());
  EXPECT_TRUE(c.lookup(L(1234)).has_value());
}

TEST(CacheStorage, FullyAssociativeLruEvictsOldest) {
  CacheStorage c(4, 0);
  for (unsigned i = 0; i < 4; ++i) c.insert(L(i), LineState::Shared);
  const auto victim = c.insert(L(4), LineState::Shared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, L(0)) << "LRU victim must be the oldest line";
  EXPECT_FALSE(c.lookup(L(0)).has_value());
  EXPECT_TRUE(c.lookup(L(4)).has_value());
}

TEST(CacheStorage, TouchPromotesToMru) {
  CacheStorage c(4, 0);
  for (unsigned i = 0; i < 4; ++i) c.insert(L(i), LineState::Shared);
  c.touch(L(0));  // L(1) becomes LRU
  const auto victim = c.insert(L(4), LineState::Shared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, L(1));
  EXPECT_TRUE(c.lookup(L(0)).has_value());
}

TEST(CacheStorage, LookupDoesNotPromote) {
  CacheStorage c(2, 0);
  c.insert(L(0), LineState::Shared);
  c.insert(L(1), LineState::Shared);
  (void)c.lookup(L(0));  // must NOT touch
  const auto victim = c.insert(L(2), LineState::Shared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, L(0));
}

TEST(CacheStorage, EraseReturnsState) {
  CacheStorage c(4, 0);
  c.insert(L(1), LineState::Exclusive);
  const auto st = c.erase(L(1));
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(*st, LineState::Exclusive);
  EXPECT_FALSE(c.erase(L(1)).has_value());
  EXPECT_EQ(c.size(), 0u);
}

TEST(CacheStorage, SetState) {
  CacheStorage c(4, 0);
  c.insert(L(2), LineState::Shared);
  EXPECT_TRUE(c.set_state(L(2), LineState::Exclusive));
  EXPECT_EQ(c.lookup(L(2)), LineState::Exclusive);
  EXPECT_FALSE(c.set_state(L(99), LineState::Shared));
  // Eviction reports the updated state.
  c.insert(L(3), LineState::Shared);
  c.insert(L(4), LineState::Shared);
  c.insert(L(5), LineState::Shared);
  const auto victim = c.insert(L(6), LineState::Shared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, L(2));
  EXPECT_EQ(victim->state, LineState::Exclusive);
}

TEST(CacheStorage, DoubleInsertThrows) {
  CacheStorage c(4, 0);
  c.insert(L(1), LineState::Shared);
  EXPECT_THROW(c.insert(L(1), LineState::Shared), std::logic_error);
}

TEST(CacheStorage, SetAssociativeConflictsWithinSet) {
  // 8 lines, 2-way: 4 sets. Lines i and i+4k share set (i mod 4).
  CacheStorage c(8, 2);
  c.insert(L(0), LineState::Shared);
  c.insert(L(4), LineState::Shared);
  // Third line in set 0 evicts LRU of that set only.
  const auto victim = c.insert(L(8), LineState::Shared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, L(0));
  EXPECT_TRUE(c.lookup(L(4)).has_value());
  // Other sets are unaffected and have room.
  EXPECT_FALSE(c.insert(L(1), LineState::Shared).has_value());
  EXPECT_FALSE(c.insert(L(2), LineState::Shared).has_value());
}

TEST(CacheStorage, DirectMappedThrashesFullAssocDoesNot) {
  // Two lines mapping to the same direct-mapped set alternate forever.
  CacheStorage dm(4, 1);
  dm.insert(L(0), LineState::Shared);
  auto v = dm.insert(L(4), LineState::Shared);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->line, L(0));

  CacheStorage fa(4, 0);
  fa.insert(L(0), LineState::Shared);
  EXPECT_FALSE(fa.insert(L(4), LineState::Shared).has_value())
      << "fully associative cache with spare capacity must not evict";
}

TEST(CacheStorage, CapacityNotMultipleOfWaysThrows) {
  EXPECT_THROW(CacheStorage(10, 4), std::invalid_argument);
}

TEST(CacheStorage, ResidentLines) {
  CacheStorage c(4, 0);
  c.insert(L(3), LineState::Shared);
  c.insert(L(7), LineState::Exclusive);
  auto lines = c.resident_lines();
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines, (std::vector<Addr>{L(3), L(7)}));
}

TEST(CacheStorage, LineSizeAffectsSetIndexing) {
  // 128-byte lines: addresses 0 and 128 are consecutive lines.
  CacheStorage c(4, 2, 128);  // 2 sets
  c.insert(0, LineState::Shared);
  c.insert(256, LineState::Shared);   // same set 0 (line #2)
  const auto victim = c.insert(512, LineState::Shared);  // line #4, set 0
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0u);
}

TEST(CacheStorage, MatchesListLruModelFullyAssociative) {
  check_against_model(16, 0, 64, 20000);
  check_against_model(1, 0, 64, 2000);
}

TEST(CacheStorage, MatchesListLruModelSetAssociative) {
  check_against_model(16, 4, 64, 20000);
  check_against_model(16, 1, 64, 20000);
  check_against_model(16, 2, 128, 20000);
  check_against_model(12, 4, 256, 20000);  // 3 sets: not a power of two
}

TEST(CacheStorage, MatchesListLruModelInfinite) {
  check_against_model(0, 0, 64, 20000);
}

TEST(CacheStorage, ErasedWaysAreReusedWithoutEviction) {
  CacheStorage c(4, 0);
  for (unsigned i = 0; i < 4; ++i) c.insert(L(i), LineState::Shared);
  ASSERT_TRUE(c.erase(L(1)));
  ASSERT_TRUE(c.erase(L(3)));
  // Two freed ways: two fills fit before anything is evicted.
  EXPECT_FALSE(c.insert(L(10), LineState::Exclusive).has_value());
  EXPECT_FALSE(c.insert(L(11), LineState::Shared).has_value());
  const auto victim = c.insert(L(12), LineState::Shared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, L(0));
  using P = std::pair<Addr, LineState>;
  EXPECT_EQ(c.dump_lru_order(),
            (std::vector<P>{{L(2), LineState::Shared},
                            {L(10), LineState::Exclusive},
                            {L(11), LineState::Shared},
                            {L(12), LineState::Shared}}));
}

}  // namespace
}  // namespace csim
