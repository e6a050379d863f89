#include "src/mem/cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace csim {

CacheStorage::CacheStorage(std::size_t capacity_lines, unsigned associativity,
                           unsigned line_bytes)
    : capacity_(capacity_lines), ways_per_set_(associativity) {
  line_shift_ = 0;
  while ((1u << line_shift_) < line_bytes) ++line_shift_;
  if (capacity_ == 0) {
    num_sets_ = 0;  // infinite: no sets and no ways at all
    return;
  }
  if (capacity_ >= kNil) {
    throw std::invalid_argument("cache capacity exceeds the way index range");
  }
  if (ways_per_set_ == 0) {
    num_sets_ = 1;  // fully associative
  } else {
    if (capacity_ % ways_per_set_ != 0) {
      throw std::invalid_argument("capacity not a multiple of associativity");
    }
    num_sets_ = capacity_ / ways_per_set_;
  }
  sets_.resize(num_sets_);
  // Every way starts on the free list, in index order, so fills never
  // allocate.
  ways_.resize(capacity_);
  for (std::size_t w = 0; w + 1 < capacity_; ++w) {
    ways_[w].next = static_cast<std::uint32_t>(w + 1);
  }
  free_ = 0;
  // A bounded cache can never hold more than capacity_ lines: size the line
  // table once so steady-state operation never rehashes. (Extra headroom to
  // make tombstone-reclaim rehashes rarer was tried and measured slower —
  // the larger table costs more in probe locality than the rehashes do.)
  map_.reserve(capacity_);
}

unsigned CacheStorage::set_index(Addr line) const noexcept {
  if (num_sets_ <= 1) return 0;
  return static_cast<unsigned>((line >> line_shift_) % num_sets_);
}

void CacheStorage::unlink(Set& s, std::uint32_t w) noexcept {
  const Way& x = ways_[w];
  if (x.prev == kNil) {
    s.head = x.next;
  } else {
    ways_[x.prev].next = x.next;
  }
  if (x.next == kNil) {
    s.tail = x.prev;
  } else {
    ways_[x.next].prev = x.prev;
  }
}

void CacheStorage::push_mru(Set& s, std::uint32_t w) noexcept {
  Way& x = ways_[w];
  x.prev = kNil;
  x.next = s.head;
  if (s.head == kNil) {
    s.tail = w;
  } else {
    ways_[s.head].prev = w;
  }
  s.head = w;
}

void CacheStorage::move_to_mru(Addr line, std::uint32_t w) noexcept {
  Set& s = sets_[set_index(line)];
  if (s.head == w) return;
  unlink(s, w);
  push_mru(s, w);
}

std::optional<LineState> CacheStorage::lookup(Addr line) const {
  const Slot* e = map_.find(line);
  if (e == nullptr) return std::nullopt;
  return e->state;
}

void CacheStorage::touch(Addr line) {
  if (capacity_ == 0) return;
  const Slot* e = map_.find(line);
  if (e == nullptr) return;
  move_to_mru(line, e->way);
}

std::optional<LineState> CacheStorage::access(Addr line) {
  const Slot* e = map_.find(line);
  if (e == nullptr) return std::nullopt;
  if (capacity_ != 0) move_to_mru(line, e->way);
  return e->state;
}

std::optional<Evicted> CacheStorage::insert(Addr line, LineState st) {
  if (capacity_ == 0) {
    auto [e, fresh] = map_.try_emplace(line);
    if (!fresh) throw std::logic_error("CacheStorage::insert of resident line");
    e->state = st;
    return std::nullopt;
  }
  if (map_.contains(line)) {
    throw std::logic_error("CacheStorage::insert of resident line");
  }
  Set& s = sets_[set_index(line)];
  std::optional<Evicted> victim;
  std::uint32_t w = free_;
  const std::size_t set_cap = (ways_per_set_ == 0) ? capacity_ : ways_per_set_;
  if (s.used >= set_cap) {
    // The LRU way is reused in place for the incoming line.
    w = s.tail;
    const Addr vline = ways_[w].line;
    victim = Evicted{vline, map_.find(vline)->state};
    map_.erase(vline);
    unlink(s, w);
  } else {
    free_ = ways_[w].next;
    ++s.used;
  }
  ways_[w].line = line;
  push_mru(s, w);
  map_[line] = Slot{st, w};
  return victim;
}

bool CacheStorage::set_state(Addr line, LineState st) {
  Slot* e = map_.find(line);
  if (e == nullptr) return false;
  e->state = st;
  return true;
}

std::optional<LineState> CacheStorage::erase(Addr line) {
  const Slot* e = map_.find(line);
  if (e == nullptr) return std::nullopt;
  const LineState st = e->state;
  if (capacity_ != 0) {
    Set& s = sets_[set_index(line)];
    unlink(s, e->way);
    --s.used;
    ways_[e->way].next = free_;
    free_ = e->way;
  }
  map_.erase(line);
  return st;
}

std::vector<Addr> CacheStorage::resident_lines() const {
  std::vector<Addr> out;
  out.reserve(map_.size());
  for (const auto& [line, e] : map_) {
    (void)e;
    out.push_back(line);
  }
  return out;
}

std::vector<std::pair<Addr, LineState>> CacheStorage::dump_lru_order() const {
  std::vector<std::pair<Addr, LineState>> out;
  out.reserve(map_.size());
  if (capacity_ == 0) {
    for (const auto& [line, e] : map_) out.emplace_back(line, e.state);
    std::sort(out.begin(), out.end());
    return out;
  }
  for (const Set& s : sets_) {
    for (std::uint32_t w = s.tail; w != kNil; w = ways_[w].prev) {
      const Addr line = ways_[w].line;
      out.emplace_back(line, map_.find(line)->state);
    }
  }
  return out;
}

}  // namespace csim
