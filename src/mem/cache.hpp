// Cluster cache storage: infinite, fully associative LRU, or set associative.
//
// The paper simulates fully associative LRU caches ("to exclude the effect of
// conflict misses from the performance characterizations") and infinite
// caches (Section 4). Set-associative mode is provided for the paper's
// stated future work on destructive interference under limited associativity
// (used by bench/ablation_associativity).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/flat_map.hpp"
#include "src/core/machine.hpp"
#include "src/core/types.hpp"

namespace csim {

/// Cache line states (invalidation protocol, no Owned/Modified distinction:
/// EXCLUSIVE implies potentially dirty).
enum class LineState : std::uint8_t { Shared, Exclusive };

/// A line evicted to make room (replacement hint / writeback to home).
struct Evicted {
  Addr line;
  LineState state;
};

/// One cluster's cache contents. Keys are line-aligned addresses.
class CacheStorage {
 public:
  /// capacity_lines == 0 => infinite. associativity == 0 => fully associative.
  /// line_bytes is needed only for set indexing in set-associative mode.
  CacheStorage(std::size_t capacity_lines, unsigned associativity,
               unsigned line_bytes = 64);

  /// Pre-sizes the line table for an expected footprint (bounded caches are
  /// already sized to their capacity at construction).
  void reserve(std::size_t lines) { map_.reserve(lines); }

  /// Returns the state of `line` if present (does not touch LRU).
  [[nodiscard]] std::optional<LineState> lookup(Addr line) const;

  /// Marks `line` most-recently-used. No-op if absent.
  void touch(Addr line);

  /// Combined lookup + touch in a single table probe: returns the state of
  /// `line` if present, marking it most-recently-used. Equivalent to
  /// lookup(line) followed by touch(line) — the hit fast path.
  [[nodiscard]] std::optional<LineState> access(Addr line);

  /// Inserts `line` (must not be present), possibly evicting the LRU line of
  /// the relevant set. Returns the victim, if any.
  std::optional<Evicted> insert(Addr line, LineState st);

  /// Changes the state of a present line. Returns false if absent.
  bool set_state(Addr line, LineState st);

  /// Removes `line` (invalidation or external downgrade-erase). Returns its
  /// prior state if it was present.
  std::optional<LineState> erase(Addr line);

  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] bool infinite() const noexcept { return capacity_ == 0; }
  [[nodiscard]] std::size_t capacity_lines() const noexcept { return capacity_; }

  /// All resident lines (testing / diagnostics). Order unspecified.
  [[nodiscard]] std::vector<Addr> resident_lines() const;

  /// All resident lines with state, in a byte-deterministic order suitable
  /// for warm-state checkpointing: set order, LRU to MRU within each set, so
  /// insert()-ing in dumped order into an empty cache of the same geometry
  /// rebuilds the exact replacement order. Infinite caches (no replacement
  /// order) dump sorted by line address.
  [[nodiscard]] std::vector<std::pair<Addr, LineState>> dump_lru_order() const;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// One preallocated way: its line and the set's LRU links (prev toward
  /// MRU, next toward LRU). Erased ways are chained on the free list
  /// through `next`.
  struct Way {
    Addr line = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  /// A set's LRU list: head is MRU, tail is LRU.
  struct Set {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t used = 0;
  };
  /// Line index entry. The state lives only here; `way` is unused by
  /// infinite caches, which keep no ways.
  struct Slot {
    LineState state = LineState::Shared;
    std::uint32_t way = kNil;
  };

  unsigned set_index(Addr line) const noexcept;
  void unlink(Set& s, std::uint32_t w) noexcept;
  void push_mru(Set& s, std::uint32_t w) noexcept;
  void move_to_mru(Addr line, std::uint32_t w) noexcept;

  std::size_t capacity_ = 0;     // total lines; 0 = infinite
  unsigned ways_per_set_ = 0;    // 0 = fully associative
  unsigned line_shift_ = 6;
  std::size_t num_sets_ = 1;
  std::vector<Way> ways_;        // capacity_ ways; empty when infinite
  std::vector<Set> sets_;        // fully associative => a single set
  std::uint32_t free_ = kNil;    // head of the free-way list
  FlatMap<Slot> map_;
};

}  // namespace csim
