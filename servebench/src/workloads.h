#pragma once

#include "harness.h"

#include <string>
#include <utility>
#include <vector>

/// \file workloads.h
/// The four serving-stack workloads (README.md has the table and the reason
/// for each). run_workload() sets the stack up three or nine times (setup_s
/// is the median), measures one untraced phase, checks every response, and with
/// --trace 1 adds a traced phase, a per-layer replay and the Chrome trace.

namespace servebench {

/// Accepted --workload names.
[[nodiscard]] const std::vector<std::string>& workload_names();

struct Outcome {
  std::vector<std::pair<std::string, Metric>> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< why the run is not correct
  /// Flat facts for the info line (sent/succeeded/failed, digest, ...).
  std::vector<std::pair<std::string, std::string>> info;
};

/// Runs one workload. `work_dir` holds temporary store directories and
/// the trace file; it must exist. Setup failures throw std::runtime_error.
[[nodiscard]] Outcome run_workload(const Args& args,
                                   const std::string& work_dir);

}  // namespace servebench
