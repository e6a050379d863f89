// Dense per-line state indexed by line number.
//
// AddressSpace is a bump allocator, so the lines of a run are dense in
// [0, bytes_allocated): a flat array indexed by `line >> line_shift`
// replaces hashing for the memory system's per-line state — the directory,
// the shared-main-memory attraction memories, and the cold-line set. The
// constructor sizes the array to the footprint; a line past the end (unit
// tests probing unallocated addresses) grows it on insert, while lookups
// past the end create nothing. Iteration visits lines in ascending order, so
// warm-state checkpoints need no sort.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/types.hpp"

namespace csim {

/// Line-number arithmetic and growth shared by LineTable and LineSet.
class LineIndex {
 protected:
  explicit LineIndex(unsigned line_bytes) noexcept
      : line_shift_(static_cast<unsigned>(std::countr_zero(line_bytes))) {}

  [[nodiscard]] std::size_t index(Addr line) const noexcept {
    return static_cast<std::size_t>(line >> line_shift_);
  }
  [[nodiscard]] Addr line_at(std::size_t i) const noexcept {
    return static_cast<Addr>(i) << line_shift_;
  }
  /// Grows `v` geometrically so that `v[i]` exists; new slots are vacant.
  template <typename V>
  static void grow(V& v, std::size_t i) {
    v.resize(std::max(i + 1, 2 * v.size()));
  }

  unsigned line_shift_;
};

/// One record of type T per line. T folds its presence into the record, so
/// a lookup is one indexed load: it declares `bool present_ = false;` as a
/// private member and befriends LineTable, which alone writes it. A vacant
/// slot always holds T{}.
template <typename T>
class LineTable : LineIndex {
 public:
  /// Sized for lines [0, lines) of `line_bytes` (a power of two) each.
  LineTable(unsigned line_bytes, std::size_t lines)
      : LineIndex(line_bytes), slots_(lines) {}

  /// Lines currently present.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] T* find(Addr line) noexcept {
    const std::size_t i = index(line);
    return i < slots_.size() && slots_[i].present_ ? &slots_[i] : nullptr;
  }
  [[nodiscard]] const T* find(Addr line) const noexcept {
    const std::size_t i = index(line);
    return i < slots_.size() && slots_[i].present_ ? &slots_[i] : nullptr;
  }
  [[nodiscard]] bool contains(Addr line) const noexcept {
    return find(line) != nullptr;
  }

  /// Record for `line`, created as T{} if absent. May grow the table:
  /// invalidates pointers/references from earlier insert()/find() calls.
  T& insert(Addr line) {
    const std::size_t i = index(line);
    if (i >= slots_.size()) grow(slots_, i);
    T& s = slots_[i];
    if (!s.present_) {
      s.present_ = true;
      ++size_;
    }
    return s;
  }

  /// Drops `line` (its slot returns to T{}). Never moves other records.
  /// Returns false if absent.
  bool erase(Addr line) noexcept {
    T* s = find(line);
    if (s == nullptr) return false;
    *s = T{};
    --size_;
    return true;
  }

  /// Calls `f(line, record)` for every present line in ascending line order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].present_) f(line_at(i), slots_[i]);
    }
  }

 private:
  std::vector<T> slots_;
  std::size_t size_ = 0;
};

/// One bit per line: the cold-line set.
class LineSet : LineIndex {
 public:
  /// Sized for lines [0, lines) of `line_bytes` (a power of two) each.
  LineSet(unsigned line_bytes, std::size_t lines)
      : LineIndex(line_bytes), words_((lines + 63) / 64) {}

  /// Adds `line`, growing the set past the end; returns true if it was new.
  bool insert(Addr line) {
    const std::size_t i = index(line);
    const std::size_t w = i >> 6;
    if (w >= words_.size()) grow(words_, w);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (words_[w] & bit) return false;
    words_[w] |= bit;
    return true;
  }

  /// Every member, in ascending line order.
  [[nodiscard]] std::vector<Addr> lines() const {
    std::vector<Addr> out;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        out.push_back(
            line_at(w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
    }
    return out;
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace csim
