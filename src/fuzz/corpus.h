// Plan serialization: the corpus format of the differential fuzzer.
//
// A corpus entry is a small line-oriented text file holding one Plan — the
// generator's complete decision trace — so any failure is replayable exactly,
// on any machine, without re-running the campaign:
//
//   cpi-fuzz-plan v1
//   seed 7
//   pools 4 4 2 4 1          (slots leaves pure cells workers)
//   op 8 123 456 789 0       (kind a b c d), one line per op
//
// Entries written by the minimizer are already shrunk; hand-editing is fine —
// Materialize clamps every field, so any parsed plan builds a valid module.
#ifndef CPI_SRC_FUZZ_CORPUS_H_
#define CPI_SRC_FUZZ_CORPUS_H_

#include <string>

#include "src/fuzz/generator.h"

namespace cpi::fuzz {

std::string SerializePlan(const Plan& plan);

// Parses SerializePlan's format. Returns false (and leaves *out untouched)
// on a malformed header or a seed/pools/op line whose fields are missing,
// non-numeric, out of range for their field, or followed by extra fields.
// Lines with unknown tags are skipped.
bool ParsePlan(const std::string& text, Plan* out);

// File convenience wrappers; return false on I/O failure.
bool SavePlanFile(const std::string& path, const Plan& plan);
bool LoadPlanFile(const std::string& path, Plan* out);

}  // namespace cpi::fuzz

#endif  // CPI_SRC_FUZZ_CORPUS_H_
