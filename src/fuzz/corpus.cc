#include "src/fuzz/corpus.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace cpi::fuzz {

namespace {
constexpr char kMagic[] = "cpi-fuzz-plan v1";

// Reads exactly `n` fields after a line's tag, each a whole number no larger
// than `max`. False on a missing, non-numeric, out-of-range or extra field.
bool ReadFields(std::istringstream& ls, size_t n, uint64_t max, uint64_t* values) {
  std::string field;
  for (size_t i = 0; i < n; ++i) {
    if (!(ls >> field)) {
      return false;
    }
    const char* end = field.data() + field.size();
    const auto [stop, ec] = std::from_chars(field.data(), end, values[i]);
    if (ec != std::errc() || stop != end || values[i] > max) {
      return false;
    }
  }
  return !(ls >> field);
}
}  // namespace

std::string SerializePlan(const Plan& plan) {
  std::ostringstream out;
  out << kMagic << "\n";
  out << "seed " << plan.seed << "\n";
  out << "pools " << plan.num_slots << " " << plan.num_leaves << " " << plan.num_pure
      << " " << plan.num_cells << " " << plan.num_workers << "\n";
  for (const PlannedOp& op : plan.ops) {
    out << "op " << static_cast<unsigned>(op.kind) << " " << op.a << " " << op.b << " "
        << op.c << " " << op.d << "\n";
  }
  return out.str();
}

bool ParsePlan(const std::string& text, Plan* out) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    return false;
  }
  Plan plan;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) {
      continue;  // blank line
    }
    uint64_t v[5];
    if (tag == "seed") {
      if (!ReadFields(ls, 1, UINT64_MAX, v)) {
        return false;
      }
      plan.seed = v[0];
    } else if (tag == "pools") {
      if (!ReadFields(ls, 5, UINT32_MAX, v)) {
        return false;
      }
      plan.num_slots = static_cast<uint32_t>(v[0]);
      plan.num_leaves = static_cast<uint32_t>(v[1]);
      plan.num_pure = static_cast<uint32_t>(v[2]);
      plan.num_cells = static_cast<uint32_t>(v[3]);
      plan.num_workers = static_cast<uint32_t>(v[4]);
    } else if (tag == "op") {
      if (!ReadFields(ls, 5, UINT32_MAX, v) || v[0] > UINT8_MAX) {
        return false;
      }
      plan.ops.push_back(PlannedOp{static_cast<uint8_t>(v[0]), static_cast<uint32_t>(v[1]),
                                   static_cast<uint32_t>(v[2]), static_cast<uint32_t>(v[3]),
                                   static_cast<uint32_t>(v[4])});
    }
    // Unknown tags are skipped: forward-compatible with annotated entries.
  }
  *out = std::move(plan);
  return true;
}

bool SavePlanFile(const std::string& path, const Plan& plan) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << SerializePlan(plan);
  return static_cast<bool>(out);
}

bool LoadPlanFile(const std::string& path, Plan* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParsePlan(buf.str(), out);
}

}  // namespace cpi::fuzz
