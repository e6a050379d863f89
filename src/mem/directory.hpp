// Full-bit-vector directory with replacement hints.
//
// The directory tracks, per cache line, which *clusters* hold copies. States
// mirror the paper: NOT_CACHED, SHARED (one or more cluster copies, clean),
// EXCLUSIVE (exactly one cluster owns the line, potentially dirty).
// Replacement hints keep the sharer vector exact: a cluster evicting a line
// is removed immediately, and an entry whose last copy disappears is dropped
// so tracked_lines() reflects only lines actually cached somewhere.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/types.hpp"

namespace csim {

enum class DirState : std::uint8_t { NotCached, Shared, Exclusive };

struct DirEntry {
  DirState state = DirState::NotCached;
  std::uint64_t sharers = 0;  ///< bit per cluster (<= 64 clusters)

  [[nodiscard]] bool has(ClusterId c) const noexcept {
    return (sharers >> c) & 1u;
  }
  void add(ClusterId c) noexcept { sharers |= (std::uint64_t{1} << c); }
  void remove(ClusterId c) noexcept { sharers &= ~(std::uint64_t{1} << c); }
  [[nodiscard]] unsigned count() const noexcept {
    return static_cast<unsigned>(__builtin_popcountll(sharers));
  }
  /// Owner cluster; meaningful only in EXCLUSIVE state.
  [[nodiscard]] ClusterId owner() const noexcept {
    return static_cast<ClusterId>(__builtin_ctzll(sharers));
  }
};

/// Directly indexed by line number: AddressSpace is a bump allocator, so the
/// lines of a run are dense in [0, bytes_allocated) and a flat entry array
/// replaces any hashing.
class Directory {
 public:
  /// Sized for lines [0, lines) of `line_bytes` (a power of two) each; a
  /// line past the end grows the table on first entry().
  Directory(unsigned line_bytes, std::size_t lines);

  /// Entry for `line`; creates a NOT_CACHED entry on first touch. May grow
  /// the table: invalidates pointers/references from earlier entry()/find()
  /// calls.
  DirEntry& entry(Addr line) {
    const std::size_t i = index(line);
    if (i >= entries_.size()) grow(i);
    if (!tracked_[i]) {
      tracked_[i] = true;
      ++tracked_count_;
    }
    return entries_[i];
  }

  /// Entry for `line` if tracked, else nullptr. Never creates an entry —
  /// use on paths that only mutate existing state (invalidations,
  /// downgrades).
  [[nodiscard]] DirEntry* find(Addr line) {
    const std::size_t i = index(line);
    return i < entries_.size() && tracked_[i] ? &entries_[i] : nullptr;
  }

  /// Read-only view; returns NOT_CACHED default for untracked lines.
  [[nodiscard]] DirEntry peek(Addr line) const {
    const std::size_t i = index(line);
    return i < entries_.size() ? entries_[i] : DirEntry{};
  }

  /// Replacement hint: cluster `c` evicted `line`. Drops the entry when the
  /// last copy disappears (EXCLUSIVE eviction = writeback home). Never
  /// moves entries: references to every entry stay valid.
  void replacement_hint(Addr line, ClusterId c);

  /// Lines created by entry() and not yet dropped by replacement_hint().
  [[nodiscard]] std::size_t tracked_lines() const noexcept {
    return tracked_count_;
  }

  /// Calls `f(line, entry)` for every tracked line in ascending line order
  /// (auditing, checkpoints, diagnostics).
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (tracked_[i]) f(static_cast<Addr>(i) << line_shift_, entries_[i]);
    }
  }

  /// Lines currently in the given state (testing / diagnostics).
  [[nodiscard]] std::vector<Addr> lines_in_state(DirState s) const;

 private:
  [[nodiscard]] std::size_t index(Addr line) const noexcept {
    return static_cast<std::size_t>(line >> line_shift_);
  }
  void grow(std::size_t i);

  unsigned line_shift_;
  // Untracked entries always hold DirEntry{} (NOT_CACHED, no sharers).
  std::vector<DirEntry> entries_;
  std::vector<bool> tracked_;
  std::size_t tracked_count_ = 0;
};

/// Table 1 latency classification of a miss by requester/home/ownership.
[[nodiscard]] LatencyClass classify_miss(const DirEntry& e, ClusterId requester,
                                         ClusterId home) noexcept;

}  // namespace csim
