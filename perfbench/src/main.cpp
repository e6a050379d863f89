// perfbench: times one paper-scale workload end to end, or traces it layer
// by layer, and prints one JSON result line (perfbench/README.md).
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 times Simulator::run on fresh programs for S host seconds and
// reports the end-to-end metrics. --trace 1 splits S between untraced and
// traced runs (TracedMemory as the memory override) and reports the
// per-layer metrics. Every run's result digest is checked: at the app's
// built-in seed against golden_digests.txt, otherwise against the process's
// first run; traced and untraced digests must agree. The last stdout line
// is {"correct", "attempted", "failed", "metrics"}; the lines before it
// carry the host fingerprint and a readable table.
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/apps/fmm.hpp"
#include "src/apps/mp3d.hpp"
#include "src/apps/ocean.hpp"
#include "src/core/simulator.hpp"
#include "src/mem/clustered_memory.hpp"
#include "src/mem/coherence.hpp"
#include "src/obs/manifest.hpp"
#include "traced_memory.hpp"

namespace perfbench {
namespace {

using csim::AccessResult;
using csim::ClusterStyle;

static_assert(static_cast<std::size_t>(AccessResult::Kind::UpgradeMiss) + 1 ==
              TracedMemory::kKinds);

// --- Workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  const char* app;  ///< ocean | mp3d | fmm, at ProblemScale::Paper
  ClusterStyle style;
  unsigned ppc;
  unsigned cache_kb;
  bool sampled;  ///< interval sampling: warm to the last 1/128, 16K detailed
};

constexpr Workload kWorkloads[] = {
    {"ocean_detail", "ocean", ClusterStyle::SharedCache, 4, 16, false},
    {"mp3d_invalidate", "mp3d", ClusterStyle::SharedCache, 2, 4, false},
    {"fmm_sampled", "fmm", ClusterStyle::SharedMemory, 8, 16, true},
};

template <class App, class Config>
std::unique_ptr<csim::Program> make_with_seed(std::uint64_t seed) {
  Config cfg = Config::preset(csim::ProblemScale::Paper);
  cfg.seed = seed;
  auto app = std::make_unique<App>(cfg);
  app->set_scale(csim::ProblemScale::Paper);
  return app;
}

std::unique_ptr<csim::Program> make_program(const Workload& w,
                                            std::uint64_t seed) {
  const std::string_view app = w.app;
  if (app == "ocean") return make_with_seed<csim::OceanApp, csim::OceanConfig>(seed);
  if (app == "mp3d") return make_with_seed<csim::Mp3dApp, csim::Mp3dConfig>(seed);
  return make_with_seed<csim::FmmApp, csim::FmmConfig>(seed);
}

std::uint64_t builtin_seed(const Workload& w) {
  const std::string_view app = w.app;
  const auto paper = csim::ProblemScale::Paper;
  if (app == "ocean") return csim::OceanConfig::preset(paper).seed;
  if (app == "mp3d") return csim::Mp3dConfig::preset(paper).seed;
  return csim::FmmConfig::preset(paper).seed;
}

std::uint64_t refs_of(const csim::SimResult& r) {
  return r.totals.reads + r.totals.writes;
}

/// The run's machine. A sampled workload warms all but the last 1/128 of the
/// references, found by a fully functional pass (its warm boundary lies past
/// the end), then runs one 16K-reference detailed interval.
std::shared_ptr<const csim::MachineSpec> make_spec(
    const Workload& w, std::uint64_t seed) {
  csim::MachineSpecBuilder b;
  b.procs(64).procs_per_cluster(w.ppc).style(w.style).cache_kb(w.cache_kb);
  if (!w.sampled) return b.build_shared();
  constexpr std::uint64_t kDetail = 16384;
  constexpr csim::Cycles kWarmQuantum = csim::Cycles{1} << 18;
  csim::MachineSpecBuilder all_warm{b.build()};
  all_warm.sample(~std::uint64_t{0} - kDetail, kDetail, 0).warm_quantum(kWarmQuantum);
  auto app = make_program(w, seed);
  const std::uint64_t total =
      refs_of(csim::Simulator(all_warm.build_shared()).run(*app));
  b.sample(total - total / 128, kDetail, 0).warm_quantum(kWarmQuantum);
  return b.build_shared();
}

// --- Set-up and runs --------------------------------------------------------

/// Everything Simulator::run builds before its first event, built outside
/// it: the program (constructed + setup()) and the memory system over its
/// address space.
struct Prepared {
  std::unique_ptr<csim::Program> program;
  std::unique_ptr<csim::AddressSpace> as;
  std::unique_ptr<csim::MemorySystem> mem;
  double program_s = 0;
  double memsys_s = 0;
};

Prepared prepare(const Workload& w, std::uint64_t seed,
                 const std::shared_ptr<const csim::MachineSpec>& spec) {
  Prepared p;
  const auto t0 = Clock::now();
  p.program = make_program(w, seed);
  p.as = std::make_unique<csim::AddressSpace>();
  p.program->setup(*p.as, *spec);
  const auto t1 = Clock::now();
  if (spec->cluster_style == ClusterStyle::SharedMemory) {
    p.mem = std::make_unique<csim::ClusteredMemorySystem>(spec, *p.as);
  } else {
    p.mem = std::make_unique<csim::CoherenceController>(spec, *p.as);
  }
  const auto t2 = Clock::now();
  p.program_s = seconds_between(t0, t1);
  p.memsys_s = seconds_between(t1, t2);
  return p;
}

struct Timed {
  csim::SimResult result;
  double seconds = 0;
};

Timed run_untraced(const Workload& w, std::uint64_t seed,
                   csim::Simulator& sim) {
  auto app = make_program(w, seed);
  const auto t0 = Clock::now();
  csim::SimResult r = sim.run(*app);
  return {std::move(r), seconds_between(t0, Clock::now())};
}

/// One traced run's layer numbers.
struct Layers {
  std::array<TracedMemory::Bucket, TracedMemory::kKinds> kinds{};
  TracedMemory::Bucket functional;
  std::uint64_t calls = 0, filter_hits = 0, refs = 0, events = 0;
  double run_s = 0, mem_s = 0, audit_s = 0, mode_s = 0, warm_s = 0;
  std::uint64_t digest = 0;
};

Layers run_traced(const Workload& w, std::uint64_t seed,
                  csim::Simulator& sim) {
  // The twin program prepares the address space the memory system is built
  // over; a fresh instance runs, repeating the same deterministic setup().
  Prepared twin = prepare(w, seed, sim.spec());
  TracedMemory traced(*twin.mem, sim.config().num_clusters());
  auto app = make_program(w, seed);
  const auto t0 = Clock::now();
  const csim::SimResult r = sim.run(*app, &traced);
  const auto t1 = Clock::now();
  traced.finish(t1);

  Layers l;
  for (std::size_t k = 0; k < TracedMemory::kKinds; ++k) {
    l.kinds[k] = traced.kind(static_cast<AccessResult::Kind>(k));
  }
  l.functional = traced.functional();
  l.calls = traced.calls();
  l.filter_hits = traced.filter_hits();
  l.refs = refs_of(r);
  l.events = r.events;
  l.run_s = seconds_between(t0, t1);
  l.mem_s = traced.self_s();
  l.audit_s = traced.audit_s();
  l.mode_s = traced.mode_s();
  l.warm_s = traced.warm_s();
  l.digest = csim::obs::result_digest(r);
  return l;
}

/// The benchmark's own accounting; returns the first identity that fails.
std::optional<std::string> check_accounting(const Workload& w, const Layers& l) {
  std::uint64_t bucketed = l.functional.count;
  for (const auto& b : l.kinds) bucketed += b.count;
  if (bucketed != l.calls) return "per-kind counts do not sum to mem.calls";
  if (l.filter_hits + l.calls != l.refs) {
    return "hit_filter.hits + mem.calls != simulated refs";
  }
  if (std::string_view(w.name) == "ocean_detail" && l.filter_hits == 0) {
    return "no hit-filter hits: the decorator switched the filter off";
  }
  if (!w.sampled && l.functional.count != 0) {
    return "functional-mode calls in a full-detail run";
  }
  if (w.sampled && l.functional.count == 0) {
    return "no functional-mode calls in a sampled run";
  }
  return std::nullopt;
}

// --- Reporting ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// The CPUs this process may run on (what `nproc` counts).
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins successive runs round-robin over the allowed CPUs, so a CPU whose
/// host core is contended for a while slows a fixed share of the runs
/// instead of all of them (the median then tracks the host, not the CPU the
/// scheduler happened to leave the process on). Restores the original mask.
class CpuRotation {
 public:
  CpuRotation() : cpus_(allowed_cpus()) {}
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() { pin(cpus_); }

  void next() {
    if (cpus_.empty()) return;
    pin({cpus_[next_++ % cpus_.size()]});
  }

 private:
  static void pin(const std::vector<int>& cpus) {
    if (cpus.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);  // best effort: timing only
  }

  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Host-speed probe: fixed work that no simulator change can alter —
/// integer arithmetic plus random lookups in a 512K-entry hash table — timed
/// next to every run on the same CPU. The host's speed drifts by up to 1.8x
/// over minutes on a shared VM (README "Host-speed scaling"); dividing a run
/// by its neighbouring probe cancels most of that drift.
class SpeedProbe {
 public:
  /// Reference probe time: scaled times read as seconds on a host whose
  /// probe takes this long (about what a 4-vCPU Intel Xeon VM measures).
  static constexpr double kReferenceSeconds = 0.05;

  SpeedProbe() {
    table_.reserve(kKeys);
    for (std::uint64_t k = 0; k < kKeys; ++k) table_.emplace(k, k * kLcg);
  }

  double seconds() {
    const auto t0 = Clock::now();
    std::uint64_t x = 1, acc = 0;
    for (int i = 0; i < kAluSteps; ++i) {
      x = x * kLcg + 1;
      acc ^= (x >> 13) * (x | 1);
      if (acc & 1) acc += x;
    }
    for (int i = 0; i < kLookups; ++i) {
      x = x * kLcg + 1;
      acc += table_.find((x >> 40) % kKeys)->second;
    }
    sink_ = acc;
    return seconds_between(t0, Clock::now());
  }

 private:
  static constexpr std::uint64_t kKeys = 1 << 19;
  static constexpr std::uint64_t kLcg = 6364136223846793005ULL;
  static constexpr int kAluSteps = 10'000'000;
  static constexpr int kLookups = 1'000'000;
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  volatile std::uint64_t sink_ = 0;
};

/// Run times of one loop, each with the probe time measured just before it.
struct Samples {
  std::vector<double> run_s, probe_s;

  /// Median run time at the reference host's speed.
  [[nodiscard]] double scaled_median() const {
    std::vector<double> scaled;
    for (std::size_t i = 0; i < run_s.size(); ++i) {
      scaled.push_back(run_s[i] * SpeedProbe::kReferenceSeconds / probe_s[i]);
    }
    return median(scaled);
  }
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Host fingerprint (README "Fingerprint"): results from different
/// fingerprints are never compared.
std::string fingerprint() {
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": " << allowed_cpus().size()
     << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

/// Peak resident set of this process image. VmHWM restarts at exec, unlike
/// getrusage's ru_maxrss, which keeps the launching process's peak.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Host cost of one Clock::now() read, the floor under every per-call ns.
double clock_ns() {
  constexpr int kReads = 200000;
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    auto last = t0;
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    batches.push_back(seconds_between(t0, last) * 1e9 / kReads);
  }
  return median(batches);
}

// --- Golden digests -----------------------------------------------------------

/// Golden digest for `workload` at its built-in seed, from the lines
/// "<workload> <16-hex digest>" of golden_digests.txt ('#' starts a comment).
std::optional<std::string> golden_digest(std::string_view workload) {
  const std::string path = PERFBENCH_GOLDEN;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden digests: " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string name, digest;
    if (!(ls >> name >> digest) || name[0] == '#') continue;
    if (name == workload) return digest;
  }
  return std::nullopt;
}

struct Args {
  const Workload* workload = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<ocean_detail|mp3d_invalidate|fmm_sampled> [--seed N] "
               "[--seconds S] [--trace 0|1]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (value == w.name) a.workload = &w;
        }
        if (a.workload == nullptr) usage("unknown workload '" + value + "'");
      } else if (flag == "--seed") {
        a.seed = std::stoull(value, nullptr, 0);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + std::string(flag));
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  const std::uint64_t seed = args.seed.value_or(builtin_seed(w));
  std::printf("# fingerprint %s\n", fingerprint().c_str());
  std::printf("# workload %s: %s, %s, ppc %u, %u KB/proc, %s, app seed %#llx\n",
              w.name, w.app,
              w.style == ClusterStyle::SharedCache ? "shared-cache" : "shared-memory",
              w.ppc, w.cache_kb, w.sampled ? "sampled" : "full detail",
              static_cast<unsigned long long>(seed));

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  auto fail = [&](std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  };
  // The reference digest every run must reproduce.
  std::optional<std::string> expected;
  if (seed == builtin_seed(w)) {
    expected = golden_digest(w.name);
    if (!expected) throw std::runtime_error(std::string("no golden digest for ") + w.name);
  }
  auto check_digest = [&](std::uint64_t d, const char* what) {
    const std::string hex = csim::obs::digest_hex(d);
    if (!expected) expected = hex;
    if (hex == *expected) return true;
    fail(std::string(what) + " digest " + hex + " != " + *expected);
    return false;
  };

  // Each Simulator::run is one attempted operation; one that throws or
  // misses its digest is a failed one, and ends its loop.
  auto attempt = [&](auto&& once) {
    ++attempted;
    try {
      return once();
    } catch (const std::exception& e) {
      fail(std::string("run threw: ") + e.what());
      return false;
    }
  };
  CpuRotation cpus;

  auto report_failure = [&] {
    for (const std::string& e : errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {}}\n",
                static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
                static_cast<unsigned long long>(std::max<std::uint64_t>(failed, 1)));
    return 1;
  };

  std::shared_ptr<const csim::MachineSpec> spec;
  if (w.sampled) {
    attempt([&] {  // the functional pass that sizes the warmup is a run too
      spec = make_spec(w, seed);
      return true;
    });
    if (!spec) return report_failure();
  } else {
    spec = make_spec(w, seed);
  }
  csim::Simulator sim(spec);

  // Set-up time: build what Simulator::run builds before its first event,
  // many times (a few ms each), and keep the median.
  std::vector<double> setup_s, program_s, memsys_s;
  for (int i = 0; i < 31; ++i) {
    cpus.next();
    const Prepared p = prepare(w, seed, spec);
    setup_s.push_back(p.program_s + p.memsys_s);
    program_s.push_back(p.program_s);
    memsys_s.push_back(p.memsys_s);
  }

  // One untimed warm-up run (allocator, page cache). Every run has the same
  // footprint, so the peak RSS is reached here, before the probe's table.
  std::uint64_t refs = 0;
  attempt([&] {
    const Timed t = run_untraced(w, seed, sim);
    refs = refs_of(t.result);
    return check_digest(csim::obs::result_digest(t.result), "warm-up run");
  });
  if (failed != 0) return report_failure();
  const double rss_mb = peak_rss_mb();

  SpeedProbe probe;
  auto timed_loop = [&](double budget, std::size_t min_runs, auto&& once) {
    Samples out;
    const auto start = Clock::now();
    while (out.run_s.size() < min_runs || seconds_between(start, Clock::now()) < budget) {
      cpus.next();
      const double probe_s = probe.seconds();
      double s = 0;
      if (!attempt([&] { return once(s); })) break;
      out.run_s.push_back(s);
      out.probe_s.push_back(probe_s);
    }
    return out;
  };
  const Samples untraced = timed_loop(args.trace ? args.seconds / 2 : args.seconds, 3,
                                      [&](double& s) {
                                        const Timed t = run_untraced(w, seed, sim);
                                        s = t.seconds;
                                        return check_digest(csim::obs::result_digest(t.result),
                                                            "untraced run");
                                      });

  // Traced runs: one for the traced-vs-untraced digest check, or a timed
  // loop over the other half of the budget with --trace 1.
  std::vector<Layers> traced;
  const Samples traced_runs =
      timed_loop(args.trace ? args.seconds / 2 : 0, args.trace ? 3 : 1, [&](double& s) {
        traced.push_back(run_traced(w, seed, sim));
        const Layers& l = traced.back();
        s = l.run_s;
        if (auto bad = check_accounting(w, l)) {
          fail(*bad);
          return false;
        }
        return check_digest(l.digest, "traced run");
      });
  if (failed != 0 || untraced.run_s.empty() || traced.empty()) return report_failure();

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double run = untraced.scaled_median();
    const double speed = SpeedProbe::kReferenceSeconds / median(untraced.probe_s);
    metrics = {
        {"run_s", run, "s"},
        {"sim_refs_per_s", static_cast<double>(refs) / run, "refs/s"},
        {"setup_s", median(setup_s) * speed, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    auto med = [&](auto&& field) {
      std::vector<double> v;
      for (const Layers& l : traced) v.push_back(field(l));
      return median(v);
    };
    const Layers& first = traced.front();  // counts repeat exactly
    const double mem_s = med([](const Layers& l) { return l.mem_s; });
    metrics.push_back({"sim.refs", static_cast<double>(first.refs), "count"});
    metrics.push_back({"mem.calls", static_cast<double>(first.calls), "count"});
    metrics.push_back({"mem.self_s", mem_s, "s"});
    metrics.push_back(
        {"mem.share", med([](const Layers& l) { return l.mem_s / l.run_s; }), "ratio"});
    static constexpr const char* kKindNames[TracedMemory::kKinds] = {
        "hit", "near_hit", "merge", "read_miss", "write_miss", "upgrade"};
    auto per_call = [&](const char* name, auto&& bucket) {
      const std::string base = std::string("mem.") + name;
      metrics.push_back({base + ".count", static_cast<double>(bucket(first).count), "count"});
      metrics.push_back({base + ".ns", med([&](const Layers& l) {
                           const TracedMemory::Bucket& b = bucket(l);
                           return b.count ? static_cast<double>(b.ns) / b.count : 0.0;
                         }),
                         "ns"});
    };
    for (std::size_t k = 0; k < TracedMemory::kKinds; ++k) {
      per_call(kKindNames[k], [k](const Layers& l) { return l.kinds[k]; });
    }
    per_call("functional", [](const Layers& l) { return l.functional; });
    metrics.push_back({"mem.audit_s", med([](const Layers& l) { return l.audit_s; }), "s"});
    metrics.push_back({"mem.mode_s", med([](const Layers& l) { return l.mode_s; }), "s"});
    metrics.push_back({"hit_filter.hits", static_cast<double>(first.filter_hits), "count"});
    metrics.push_back({"hit_filter.ratio",
                       static_cast<double>(first.filter_hits) / static_cast<double>(first.refs),
                       "ratio"});
    const double core_s = med([](const Layers& l) { return l.run_s - l.mem_s; });
    metrics.push_back({"core.events", static_cast<double>(first.events), "count"});
    metrics.push_back({"core.self_s", core_s, "s"});
    metrics.push_back({"core.ns_per_event",
                       core_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(first.events, 1)),
                       "ns"});
    metrics.push_back({"sampling.warm_s", med([](const Layers& l) { return l.warm_s; }), "s"});
    metrics.push_back(
        {"sampling.warm_share", med([](const Layers& l) { return l.warm_s / l.run_s; }), "ratio"});
    metrics.push_back({"setup.program_s", median(program_s), "s"});
    metrics.push_back({"setup.memsys_s", median(memsys_s), "s"});
    metrics.push_back({"trace.clock_ns", clock_ns(), "ns"});
    metrics.push_back({"trace.overhead", traced_runs.scaled_median() / untraced.scaled_median(),
                       "ratio"});
    metrics.push_back({"host.run_s", median(untraced.run_s), "s"});
    metrics.push_back({"host.probe_s", median(untraced.probe_s), "s"});
  }

  std::printf("# digest %s\n", expected->c_str());
  auto print_runs = [](const char* what, const Samples& s) {
    std::vector<double> v = s.run_s;
    std::sort(v.begin(), v.end());
    std::printf("# %s runs: n=%zu, host s min %.4f median %.4f max %.4f, probe median %.4f s,"
                " scaled median %.4f s\n",
                what, v.size(), v.front(), median(v), v.back(), median(s.probe_s),
                s.scaled_median());
  };
  print_runs("untraced", untraced);
  print_runs("traced", traced_runs);
  for (const Metric& m : metrics) {
    std::printf("# %-22s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": 0, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
