// Golden hashes of the printed IR every scheme produces: each workload of the
// six lists at scale 1 plus fuzz plans of seeds 1-40, instrumented under every
// scheme of the registry at O0 and O1. A refactor of the IR, the
// instrumentation passes or the optimizer that claims to change nothing must
// keep every line of tests/golden/ir-print.txt, and the file must hold a line
// for every scheme, level and group.
//
// Each line is `<scheme> O<level> <group> <fnv>`, where <fnv> is the FNV-1a 64
// hash of the concatenated ir::PrintModule text of the group's modules, in
// list order. After an intended change to printed IR, rewrite the file with
//   CPI_UPDATE_IR_GOLDEN=1 ./cpi_tests --gtest_filter='IrGoldenTest.*'
// and say in the change which lines moved and why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>

#include "src/core/levee.h"
#include "src/core/scheme.h"
#include "src/fuzz/generator.h"
#include "src/ir/clone.h"
#include "src/ir/printer.h"
#include "src/workloads/workloads.h"

namespace cpi {
namespace {

struct Group {
  std::string name;
  std::vector<std::unique_ptr<ir::Module>> modules;  // uninstrumented
};

std::vector<Group> BuildGroups() {
  const std::pair<const char*, const std::vector<workloads::Workload>&> kLists[] = {
      {"spec", workloads::SpecCpu2006()},       {"phoronix", workloads::Phoronix()},
      {"webserver", workloads::WebServer()},    {"concurrent", workloads::ConcurrentServer()},
      {"eventloop", workloads::EventLoop()},    {"churn", workloads::ChurnServer()}};
  std::vector<Group> groups;
  for (const auto& [name, list] : kLists) {
    Group g{name, {}};
    for (const workloads::Workload& w : list) {
      g.modules.push_back(w.build(1));
    }
    groups.push_back(std::move(g));
  }
  Group fuzz{"fuzz", {}};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    fuzz.modules.push_back(fuzz::Materialize(fuzz::MakePlan(seed)));
  }
  groups.push_back(std::move(fuzz));
  return groups;
}

uint64_t Fnv1a(uint64_t h, const std::string& text) {
  for (unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

// "<scheme> O<level> <group>" -> hash, for every registered scheme.
std::map<std::string, std::string> ComputeLines() {
  const std::vector<Group> groups = BuildGroups();
  std::map<std::string, std::string> lines;
  for (const core::ProtectionScheme* scheme : core::SchemeRegistry::All()) {
    for (int opt = 0; opt <= 1; ++opt) {
      core::Config config;
      config.scheme = scheme;
      config.opt_level = opt;
      const core::Compiler compiler(config);
      for (const Group& g : groups) {
        uint64_t h = 0xcbf29ce484222325ull;
        for (const auto& m : g.modules) {
          auto copy = ir::CloneModule(*m);
          compiler.Instrument(*copy);
          h = Fnv1a(h, ir::PrintModule(*copy));
        }
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
        lines[std::string(scheme->name()) + " O" + std::to_string(opt) + " " + g.name] = hex;
      }
    }
  }
  return lines;
}

const std::filesystem::path kGolden =
    std::filesystem::path(CPI_SOURCE_DIR) / "tests" / "golden" / "ir-print.txt";

TEST(IrGoldenTest, PrintedIrMatchesGoldenForEverySchemeAndOptLevel) {
  const std::map<std::string, std::string> actual = ComputeLines();
  if (std::getenv("CPI_UPDATE_IR_GOLDEN") != nullptr) {
    std::ofstream out(kGolden);
    for (const auto& [key, hash] : actual) {
      out << key << " " << hash << "\n";
    }
    GTEST_SKIP() << "rewrote " << kGolden;
  }

  std::ifstream in(kGolden);
  ASSERT_TRUE(in.good()) << kGolden;
  std::map<std::string, std::string> expected;
  for (std::string line; std::getline(in, line);) {
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    expected[line.substr(0, sp)] = line.substr(sp + 1);
  }
  ASSERT_FALSE(expected.empty());
  // Every golden line must be reproduced.
  for (const auto& [key, hash] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "no scheme/opt/group for golden line '" << key << "'";
    EXPECT_EQ(it->second, hash) << "printed IR changed: " << key;
  }
  // And every computed line must be in the file: the registry is a fixed
  // table, so a scheme row without golden lines is a file not yet rewritten.
  for (const auto& [key, hash] : actual) {
    EXPECT_EQ(expected.count(key), 1u) << "no golden line for '" << key << " " << hash << "'";
  }
}

}  // namespace
}  // namespace cpi
