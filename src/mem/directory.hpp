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
#include "src/mem/line_table.hpp"

namespace csim {

enum class DirState : std::uint8_t { NotCached, Shared, Exclusive };

struct DirEntry {
  std::uint64_t sharers = 0;  ///< bit per cluster (<= 64 clusters)
  DirState state = DirState::NotCached;

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

 private:
  template <typename>
  friend class LineTable;
  bool present_ = false;  // tracked by the directory (LineTable writes it)
};
static_assert(sizeof(DirEntry) == 16, "presence folds into the padding");

/// Directly indexed by line number (a LineTable): AddressSpace is a bump
/// allocator, so the lines of a run are dense in [0, bytes_allocated).
class Directory {
 public:
  /// Sized for lines [0, lines) of `line_bytes` (a power of two) each; a
  /// line past the end grows the table on first entry().
  Directory(unsigned line_bytes, std::size_t lines)
      : entries_(line_bytes, lines) {}

  /// Entry for `line`; creates a NOT_CACHED entry on first touch. May grow
  /// the table: invalidates pointers/references from earlier entry()/find()
  /// calls.
  DirEntry& entry(Addr line) { return entries_.insert(line); }

  /// Entry for `line` if tracked, else nullptr. Never creates an entry —
  /// use on paths that only mutate existing state (invalidations,
  /// downgrades).
  [[nodiscard]] DirEntry* find(Addr line) { return entries_.find(line); }

  /// Read-only view; returns NOT_CACHED default for untracked lines.
  [[nodiscard]] DirEntry peek(Addr line) const {
    const DirEntry* e = entries_.find(line);
    return e != nullptr ? *e : DirEntry{};
  }

  /// Replacement hint: cluster `c` evicted `line`. Drops the entry when the
  /// last copy disappears (EXCLUSIVE eviction = writeback home). Never
  /// moves entries: references to every entry stay valid.
  void replacement_hint(Addr line, ClusterId c);

  /// Lines created by entry() and not yet dropped by replacement_hint().
  [[nodiscard]] std::size_t tracked_lines() const noexcept {
    return entries_.size();
  }

  /// Calls `f(line, entry)` for every tracked line in ascending line order
  /// (auditing, checkpoints, diagnostics).
  template <typename F>
  void for_each(F&& f) const {
    entries_.for_each(f);
  }

  /// Lines currently in the given state (testing / diagnostics).
  [[nodiscard]] std::vector<Addr> lines_in_state(DirState s) const;

 private:
  LineTable<DirEntry> entries_;
};

/// Table 1 latency classification of a miss by requester/home/ownership.
[[nodiscard]] LatencyClass classify_miss(const DirEntry& e, ClusterId requester,
                                         ClusterId home) noexcept;

}  // namespace csim
