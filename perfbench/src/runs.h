#pragma once

// The three kinds of benchmark run: a wire workload against a live
// `glint fleet-serve` child process, the in-process audit workload, and the
// traced per-layer replay.

#include <cstdint>
#include <string>

#include "common.h"
#include "core/detector.h"
#include "plan.h"

namespace perfbench {

struct RunConfig {
  std::string glint;    ///< path of the shipped glint binary
  std::string workdir;  ///< scratch directory owned by this run
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Every metric the run measured, workload-specific names included.
  Report report;
  /// The metrics of the final JSON line, by BENCHMARK.json name.
  Report json;
  void Fail(const std::string& why);
};

/// The detector options `glint fleet-serve` trains with (seed 97, 600
/// training graphs, 14 epochs, embed_dim 64), so in-process replays are
/// bit-identical to the served verdicts.
glint::core::TrainedDetector::Options ServeOptions();
/// One-line summary of ServeOptions() for the run record.
std::string ServeOptionsSummary();

RunResult RunWire(const Plan& plan, const RunConfig& cfg);
RunResult RunAudit(const Plan& plan, const RunConfig& cfg);
RunResult RunTraced(const Plan& plan, const RunConfig& cfg);

}  // namespace perfbench
