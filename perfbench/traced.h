// The traced run of pembench: per-layer metrics and spans.
#pragma once

#include <cstdint>
#include <string>

#include "workload.h"

namespace pembench {

// Runs the traced measurements of `w` for `seed`, prints the per-layer
// metrics and writes the spans to `spans_path` (skipped when empty).
// Returns the process exit code.
int RunTraced(const Workload& w, uint64_t seed, double seconds,
              const std::string& spans_path);

}  // namespace pembench
