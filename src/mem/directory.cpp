#include "src/mem/directory.hpp"

#include <algorithm>
#include <bit>

namespace csim {

Directory::Directory(unsigned line_bytes, std::size_t lines)
    : line_shift_(static_cast<unsigned>(std::countr_zero(line_bytes))),
      entries_(lines),
      tracked_(lines, false) {}

void Directory::grow(std::size_t i) {
  const std::size_t n = std::max(i + 1, 2 * entries_.size());
  entries_.resize(n);
  tracked_.resize(n, false);
}

void Directory::replacement_hint(Addr line, ClusterId c) {
  DirEntry* e = find(line);
  if (e == nullptr) return;
  e->remove(c);
  if (e->sharers == 0 || e->state == DirState::Exclusive) {
    // Last copy gone (or the owner evicted — writeback; nobody else can have
    // held a copy): the line is NOT_CACHED, which is what peek() reports for
    // untracked lines, so drop the entry entirely.
    *e = DirEntry{};
    tracked_[index(line)] = false;
    --tracked_count_;
  }
}

std::vector<Addr> Directory::lines_in_state(DirState s) const {
  std::vector<Addr> out;
  for_each([&](Addr line, const DirEntry& e) {
    if (e.state == s) out.push_back(line);
  });
  return out;
}

LatencyClass classify_miss(const DirEntry& e, ClusterId requester,
                           ClusterId home) noexcept {
  const bool dirty_elsewhere =
      e.state == DirState::Exclusive && e.owner() != requester;
  if (home == requester) {
    return dirty_elsewhere ? LatencyClass::LocalDirtyRemote
                           : LatencyClass::LocalClean;
  }
  if (dirty_elsewhere && e.owner() != home) {
    return LatencyClass::RemoteDirtyThird;  // three network hops
  }
  return LatencyClass::RemoteClean;  // home satisfies in two hops
}

}  // namespace csim
