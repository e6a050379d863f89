// Open-addressing flat hash map keyed by simulated addresses.
//
// The memory system keeps its sparse state in these tables: each cache's
// line index, the MSHRs and the page home map. (State kept for every line of
// the allocated footprint — the directory, the attraction memories and the
// cold-line set — indexes a flat array instead; see src/mem/line_table.hpp.)
// std::unordered_map pays a heap-allocated node and a pointer chase per
// entry; FlatMap stores keys, values, and occupancy tags in three dense
// arrays with linear probing and a multiplicative (Fibonacci) hash, so the
// common lookup touches one or two cache lines and inserts allocate nothing.
//
// Deliberate semantics (narrower than std::unordered_map, and relied upon by
// the memory-system code):
//  - Keys are Addr (64-bit). Values must be default-constructible and
//    movable; a default-constructed V is treated as "vacant storage".
//  - erase() uses tombstones and never moves other entries, so pointers and
//    references to *other* values stay valid across erases.
//  - Any insertion (operator[], try_emplace) may rehash and invalidates all
//    pointers, references, and iterators.
//  - Iteration order is unspecified (used only by audits / diagnostics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/types.hpp"

namespace csim {

template <typename V>
class FlatMap {
  enum : std::uint8_t { kEmpty = 0, kFull = 1, kTomb = 2 };

 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Pre-sizes the table for `n` entries without rehashing on the way there.
  void reserve(std::size_t n) {
    if (n == 0) return;
    std::size_t cap = 16;
    while (cap * 3 < n * 4) cap <<= 1;  // keep load factor under 3/4
    if (cap > ctrl_.size()) rehash(cap);
  }

  [[nodiscard]] V* find(Addr k) noexcept {
    if (ctrl_.empty()) return nullptr;
    std::size_t i = slot_of(k);
    while (true) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty) return nullptr;
      if (c == kFull && keys_[i] == k) return &vals_[i];
      i = (i + 1) & mask_;
    }
  }
  [[nodiscard]] const V* find(Addr k) const noexcept {
    return const_cast<FlatMap*>(this)->find(k);
  }
  [[nodiscard]] bool contains(Addr k) const noexcept {
    return find(k) != nullptr;
  }

  /// Inserts a default-constructed value for `k` if absent. Returns the
  /// value slot and whether it was newly inserted.
  std::pair<V*, bool> try_emplace(Addr k) {
    if ((size_ + tombs_ + 1) * 4 > ctrl_.size() * 3) {
      // Grow only when live entries justify it; a tombstone-dominated table
      // (high-churn allocate/release patterns, e.g. the MSHR) rehashes at
      // the same capacity to reclaim the dead slots, keeping memory bounded.
      const std::size_t cap = ctrl_.empty()          ? 16
                              : size_ * 4 >= ctrl_.size() ? ctrl_.size() * 2
                                                          : ctrl_.size();
      rehash(cap);
    }
    std::size_t i = slot_of(k);
    std::size_t tomb = kNoSlot;
    while (true) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty) {
        if (tomb != kNoSlot) {
          i = tomb;
          --tombs_;
        }
        ctrl_[i] = kFull;
        keys_[i] = k;
        ++size_;
        return {&vals_[i], true};
      }
      if (c == kFull && keys_[i] == k) return {&vals_[i], false};
      if (c == kTomb && tomb == kNoSlot) tomb = i;
      i = (i + 1) & mask_;
    }
  }

  V& operator[](Addr k) { return *try_emplace(k).first; }

  /// Removes `k`; other entries are not moved. Returns false if absent.
  bool erase(Addr k) {
    V* v = find(k);
    if (v == nullptr) return false;
    const std::size_t i = static_cast<std::size_t>(v - vals_.data());
    ctrl_[i] = kTomb;
    vals_[i] = V{};  // release any held resources; slot stays vacant
    --size_;
    ++tombs_;
    return true;
  }

  void clear() {
    ctrl_.assign(ctrl_.size(), kEmpty);
    for (auto& v : vals_) v = V{};
    size_ = 0;
    tombs_ = 0;
  }

  /// Forward iteration over (key, value); order unspecified.
  class const_iterator {
   public:
    const_iterator(const FlatMap* m, std::size_t i) : m_(m), i_(i) { skip(); }
    [[nodiscard]] std::pair<Addr, const V&> operator*() const {
      return {m_->keys_[i_], m_->vals_[i_]};
    }
    const_iterator& operator++() {
      ++i_;
      skip();
      return *this;
    }
    bool operator==(const const_iterator& o) const noexcept { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const noexcept { return i_ != o.i_; }

   private:
    void skip() {
      while (i_ < m_->ctrl_.size() && m_->ctrl_[i_] != kFull) ++i_;
    }
    const FlatMap* m_;
    std::size_t i_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, ctrl_.size()}; }

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  [[nodiscard]] std::size_t slot_of(Addr k) const noexcept {
    // Fibonacci hashing: line addresses share low zero bits; the multiply
    // spreads them across the high bits, which the shift selects.
    return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void rehash(std::size_t cap) {
    std::vector<std::uint8_t> octrl = std::move(ctrl_);
    std::vector<Addr> okeys = std::move(keys_);
    std::vector<V> ovals = std::move(vals_);
    ctrl_.assign(cap, kEmpty);
    keys_.assign(cap, 0);
    vals_.assign(cap, V{});
    mask_ = cap - 1;
    shift_ = 64;
    while ((std::size_t{1} << (64 - shift_)) < cap) --shift_;
    size_ = 0;
    tombs_ = 0;
    for (std::size_t i = 0; i < octrl.size(); ++i) {
      if (octrl[i] != kFull) continue;
      auto [v, fresh] = try_emplace(okeys[i]);
      (void)fresh;
      *v = std::move(ovals[i]);
    }
  }

  std::vector<std::uint8_t> ctrl_;
  std::vector<Addr> keys_;
  std::vector<V> vals_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
  std::size_t tombs_ = 0;
};

}  // namespace csim
