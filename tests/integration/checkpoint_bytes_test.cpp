// Byte-level pins for warm-state checkpoints (.csc).
//
// GoldenGeometry pins the *results* of checkpointed sampled runs, but a
// change in the order the memory system writes its line sets (touched
// lines, directory, attraction memories) leaves the restored state — and
// so every result digest — unchanged. These pins hash the checkpoint files
// themselves, so the encoded bytes cannot drift unnoticed: fmm, ocean and
// mp3d at test scale, both organizations, 64 processors in clusters of 4,
// 4 KB fully associative caches with 64 B and 128 B lines.
//
// Regenerate checkpoint_bytes_hashes.txt only for an intentional format or
// model change, never to silence a diff.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.hpp"
#include "src/core/machine.hpp"
#include "src/core/simulator.hpp"
#include "src/obs/manifest.hpp"

namespace csim {
namespace {

namespace fs = std::filesystem;

std::string fixture_path() {
  return std::string(CSIM_SOURCE_DIR) +
         "/tests/integration/checkpoint_bytes_hashes.txt";
}

/// "app style geometry" -> committed FNV-1a hex of the .csc file.
std::map<std::string, std::string> load_fixture() {
  std::ifstream in(fixture_path());
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << fixture_path();
  std::map<std::string, std::string> golden;
  std::string app, style, geometry, hash;
  while (in >> app >> style >> geometry >> hash) {
    golden[app + ' ' + style + ' ' + geometry] = hash;
  }
  return golden;
}

struct Case {
  const char* app;
  std::uint64_t warmup_refs;  // about half of the app's test-scale run
};
constexpr Case kCases[] = {{"fmm", 32768}, {"ocean", 49152}, {"mp3d", 12288}};

struct Style {
  const char* name;
  ClusterStyle style;
};
constexpr Style kStyles[] = {{"shared_cache", ClusterStyle::SharedCache},
                             {"shared_memory", ClusterStyle::SharedMemory}};

constexpr unsigned kLineBytes[] = {64, 128};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(CheckpointBytes, SampledRunsWriteCommittedCheckpointBytes) {
  const auto golden = load_fixture();
  const fs::path dir =
      fs::temp_directory_path() /
      ("csim_checkpoint_bytes_" +
       std::to_string(static_cast<unsigned long>(::getpid())));
  unsigned checked = 0;
  for (const Case& k : kCases) {
    const std::unique_ptr<Program> prog = make_app(k.app, ProblemScale::Test);
    for (const Style& s : kStyles) {
      for (const unsigned line : kLineBytes) {
        fs::remove_all(dir);
        fs::create_directories(dir);
        MachineSpecBuilder b;
        b.procs(64).procs_per_cluster(4).style(s.style).cache_kb(4)
            .line_bytes(line)
            .sample(k.warmup_refs, 4096, 16384)
            .checkpoint_dir(dir.string());
        const SimResult r = simulate(*prog, b.build());
        const std::string key = std::string(k.app) + ' ' + s.name + " a0_l" +
                                std::to_string(line);
        ASSERT_TRUE(r.ok) << key;
        std::vector<fs::path> files;
        for (const auto& e : fs::directory_iterator(dir)) {
          files.push_back(e.path());
        }
        ASSERT_EQ(files.size(), 1u) << key;
        const std::string hex =
            obs::digest_hex(obs::fnv1a(read_file(files.front())));
        const auto it = golden.find(key);
        if (it == golden.end()) {
          ADD_FAILURE() << "no committed hash; fixture line: " << key << ' '
                        << hex;
        } else {
          EXPECT_EQ(hex, it->second) << "checkpoint bytes drifted at " << key;
          ++checked;
        }
      }
    }
  }
  fs::remove_all(dir);
  EXPECT_EQ(checked, std::size(kCases) * std::size(kStyles) *
                         std::size(kLineBytes));
}

}  // namespace
}  // namespace csim
