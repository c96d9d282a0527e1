// The benchmark's three workloads.  Each builds its inputs from the seed,
// sets up, runs the timed phase for the configured seconds (and at least
// enough events for its percentiles), checks the program's outputs, and
// fills a RunResult; a traced run then re-executes the timed phase's
// inputs under the span recorder.  Everything runs on the calling thread.
#pragma once

#include "report.hpp"

namespace perfbench {

/// `run_sweep` over the first scenarios of the paper grid; with
/// `validate`, every accept is cross-checked on the simulator.
RunResult run_sweep_workload(const RunConfig& config, bool validate);

/// The line-protocol admission service driven through CommandSession.
RunResult run_admit_workload(const RunConfig& config);

}  // namespace perfbench
