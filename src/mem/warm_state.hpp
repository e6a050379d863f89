// Warm-state checkpoints (.csc): the memory-system state at a sampled run's
// warmup boundary, serialized so later runs sharing the same
// warm_config_digest (obs/manifest.hpp) skip the warmup by fast-forward
// replay + state install instead of re-warming.
//
// One file per warm digest: `<dir>/<16-hex digest>.csc`, written atomically
// (temp + rename), framed exactly like the sweep journal — "CSCK" magic,
// version byte, payload length, FNV-1a payload checksum — and decoded by a
// hardened loader: any corruption shape (truncated header or record, bad
// magic, checksum mismatch, version skew) degrades into a warning and a
// fresh in-process warmup, never a wrong answer.
//
// Contents are byte-deterministic: the directory is captured in line order,
// hash-map state (attraction memory, home map, touched-line set) is sorted by
// address before encoding, and cache lines are dumped in set order, LRU to
// MRU within each set, so re-inserting in file order rebuilds the exact
// replacement order. MSHR tables, hit-filter entries, and contention queues
// are deliberately omitted: at the warmup boundary MSHRs are dropped by the
// functional-mode toggle, hit filters are a digest-neutral fast path (pinned
// by hit_filter_test), and contention queues are untouched in functional
// mode.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/stats.hpp"
#include "src/core/types.hpp"

namespace csim {

struct WarmCacheLine {
  Addr line = 0;
  std::uint8_t state = 0;  ///< LineState
  bool operator==(const WarmCacheLine&) const noexcept = default;
};

struct WarmDirLine {
  Addr line = 0;
  std::uint8_t state = 0;  ///< DirState
  std::uint64_t sharers = 0;
  bool operator==(const WarmDirLine&) const noexcept = default;
};

struct WarmAttractionLine {
  Addr line = 0;
  std::uint64_t proc_copies = 0;
  std::uint8_t cluster_exclusive = 0;
  bool operator==(const WarmAttractionLine&) const noexcept = default;
};

/// Organization-agnostic warm-state container. `caches` holds one entry per
/// cache unit: per cluster (shared-cache organization) or per processor
/// (shared-memory organization); `attraction` is shared-memory only.
struct WarmState {
  std::uint64_t warm_digest = 0;
  std::string app_name;
  std::uint8_t scale = 0;
  std::uint32_t num_procs = 0;
  std::uint32_t procs_per_cluster = 0;
  std::uint8_t cluster_style = 0;
  std::uint64_t warmup_refs = 0;
  /// Per-processor local clocks at the boundary: a restore verifies the
  /// fast-forward replay reproduced them exactly before trusting the state.
  std::vector<std::uint64_t> proc_now;
  std::vector<MissCounters> counters;  ///< per cluster
  std::vector<Addr> touched_lines;     ///< cold-miss set, sorted
  std::uint64_t home_rr_next = 0;
  std::vector<std::pair<Addr, std::uint32_t>> homes;  ///< page -> home, sorted
  std::vector<WarmDirLine> directory;                 ///< sorted by line
  std::vector<std::vector<WarmCacheLine>> caches;     ///< LRU -> MRU per set
  std::vector<std::vector<WarmAttractionLine>> attraction;  ///< per cluster
};

/// Frames the state as one "CSCK" record (magic + version + length + FNV-1a
/// + payload).
std::string encode_warm_state(const WarmState& ws);

struct WarmLoad {
  std::optional<WarmState> state;
  std::vector<std::string> warnings;
};

/// Hardened decode; `origin` names the source in warnings. A damaged record
/// yields an empty `state` plus a warning, never a throw.
WarmLoad decode_warm_state(std::string_view bytes, const std::string& origin);

/// `<dir>/<16-hex digest>.csc`.
std::string warm_state_path(const std::string& dir, std::uint64_t digest);

/// Atomically writes `<dir>/<ws.warm_digest>.csc`, creating `dir` if needed.
void save_warm_state(const std::string& dir, const WarmState& ws);

/// Loads the checkpoint for `digest`. A missing file is not an error (empty
/// state, no warning); a damaged or mismatched one carries a warning.
/// Repeat loads of an unchanged file (same size + mtime) are served from an
/// in-process cache of decoded states — sweeps resume many rows from one
/// checkpoint, and per-row re-decoding would rival the replay itself.
WarmLoad load_warm_state(const std::string& dir, std::uint64_t digest);

}  // namespace csim
