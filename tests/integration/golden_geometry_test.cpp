// Golden determinism outside the 63-config frame: cache geometries the
// reference frame never uses (set-associative caches, non-64 B lines) and a
// sampled run that writes and then restores a warm-state checkpoint. Every
// app at test scale, both organizations, 64 processors in clusters of 4.
//
// The committed digests in golden_geometry_digests.txt pin the LRU order of
// set-associative caches, directory indexing under every line shift, and the
// checkpoint's cache dump order (CacheStorage::dump_lru_order), all of which
// the fully associative 64 B frame in golden_digests.txt leaves untested.
// Regenerate the fixture only after proving a change is an intentional model
// change, never to silence a diff.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "src/apps/app.hpp"
#include "src/core/machine.hpp"
#include "src/core/simulator.hpp"
#include "src/obs/manifest.hpp"

namespace csim {
namespace {

namespace fs = std::filesystem;

std::string fixture_path() {
  return std::string(CSIM_SOURCE_DIR) +
         "/tests/integration/golden_geometry_digests.txt";
}

/// "app style geometry" -> committed digest hex.
std::map<std::string, std::string> load_fixture() {
  std::ifstream in(fixture_path());
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << fixture_path();
  std::map<std::string, std::string> golden;
  std::string app, style, geometry, digest;
  while (in >> app >> style >> geometry >> digest) {
    golden[app + ' ' + style + ' ' + geometry] = digest;
  }
  return golden;
}

struct Geometry {
  unsigned ways;  // 0 = fully associative
  unsigned line_bytes;
};

constexpr Geometry kGeometries[] = {
    {1, 64}, {2, 64}, {4, 64},          // set-associative, 64 B lines
    {0, 16}, {0, 128}, {0, 256},        // fully associative, other lines
    {2, 128},                           // set-associative, 128 B lines
};

std::string geometry_name(const Geometry& g) {
  return "a" + std::to_string(g.ways) + "_l" + std::to_string(g.line_bytes);
}

MachineSpecBuilder base_builder(ClusterStyle style) {
  MachineSpecBuilder b;
  b.procs(64).procs_per_cluster(4).style(style).cache_kb(4);
  return b;
}

SimResult run(const std::string& app, const MachineSpec& cfg) {
  const std::unique_ptr<Program> prog = make_app(app, ProblemScale::Test);
  return simulate(*prog, cfg);
}

struct Style {
  const char* name;
  ClusterStyle style;
};
constexpr Style kStyles[] = {{"shared_cache", ClusterStyle::SharedCache},
                             {"shared_memory", ClusterStyle::SharedMemory}};

/// Expects `r`'s digest to match the fixture entry for `key`; a missing entry
/// prints the fixture line the run would need.
void expect_golden(const std::map<std::string, std::string>& golden,
                   const std::string& key, const SimResult& r) {
  const std::string hex = obs::digest_hex(obs::result_digest(r));
  const auto it = golden.find(key);
  ASSERT_NE(it, golden.end()) << "no golden digest; fixture line: " << key
                              << ' ' << hex;
  EXPECT_EQ(hex, it->second) << "behavioral drift at " << key;
}

TEST(GoldenGeometry, CacheGeometriesMatchCommittedDigests) {
  const auto golden = load_fixture();
  unsigned checked = 0;
  for (const std::string& app : app_names()) {
    for (const Style& s : kStyles) {
      for (const Geometry& g : kGeometries) {
        const MachineSpec cfg = base_builder(s.style)
                                    .associativity(g.ways)
                                    .line_bytes(g.line_bytes)
                                    .build();
        const SimResult r = run(app, cfg);
        ASSERT_TRUE(r.ok) << app << ' ' << s.name << ' ' << geometry_name(g);
        expect_golden(golden, app + ' ' + s.name + ' ' + geometry_name(g), r);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, app_names().size() * 2 * std::size(kGeometries));
}

TEST(GoldenGeometry, CheckpointedSampledRunsMatchCommittedDigests) {
  // Sampled 2-way runs: the first run warms in process and writes the
  // checkpoint, the second restores it. Both must equal the fixture, which
  // pins the checkpoint's LRU dump and its replay into empty caches.
  const auto golden = load_fixture();
  const fs::path dir =
      fs::temp_directory_path() /
      ("csim_golden_geometry_" +
       std::to_string(static_cast<unsigned long>(::getpid())));
  for (const std::string& app : app_names()) {
    for (const Style& s : kStyles) {
      fs::remove_all(dir);
      fs::create_directories(dir);
      const MachineSpec cfg = base_builder(s.style)
                                  .associativity(2)
                                  .sample(4096, 4096, 16384)
                                  .checkpoint_dir(dir.string())
                                  .build();
      const SimResult writer = run(app, cfg);
      ASSERT_TRUE(writer.ok) << app << ' ' << s.name;
      ASSERT_FALSE(fs::is_empty(dir)) << app << ' ' << s.name;
      const SimResult reader = run(app, cfg);
      ASSERT_TRUE(reader.ok) << app << ' ' << s.name;
      const std::string key = app + ' ' + s.name + " sampled_a2_l64";
      expect_golden(golden, key, writer);
      expect_golden(golden, key, reader);
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace csim
