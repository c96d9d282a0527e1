// What one benchmark run reports, and the fixed metric catalogues.
//
// An untraced run (--trace 0) reports every end-to-end metric; a traced
// run (--trace 1) reports every per-layer metric.  Both catalogues are
// fixed across workloads and mirror BENCHMARK.json: a layer a workload
// never calls reads 0.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen/taskset_gen.hpp"
#include "spans.hpp"

namespace perfbench {

/// Command-line settings of one run.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its Chrome trace ("" = nowhere).
  std::string trace_path;
};

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

/// What an untraced run measured, for the end-to-end metrics.
struct EndToEnd {
  std::vector<double> setup_s;     // every set-up repeat
  std::vector<double> latency_ms;  // every event
  double wall_s = 0.0;             // time the events took
  double tasksets = 0.0;           // task sets processed
  double accepts = 0.0;            // accept_ppm's numerator ...
  double accept_base = 0.0;        // ... over a fixed, seed-determined base
};

class RunResult {
 public:
  /// Records a failed output check (and prints it to stderr).
  void check(bool ok, const std::string& what);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Starts the catalogue for this run's mode with every value at 0.
  explicit RunResult(bool traced);

  /// Sets a catalogued metric; throws on a name the catalogue of the
  /// run's mode does not list, so the report cannot drift from
  /// BENCHMARK.json.
  void set(const std::string& name, double value);

  /// Sets every end-to-end metric; peak RSS is read now.
  void set_end_to_end(const EndToEnd& m);

  /// Sets the generator's per-layer counts.
  void set_gen(const dpcp::GenStats& stats, std::int64_t calls,
               std::int64_t tasks);

  /// Closes a traced run: per-layer busy and self times out of `rec`, the
  /// tracing overhead of a replay that took `replay_s` against the
  /// untraced `untraced_s`, the share of the `traced_s` seconds of traced
  /// work that the self times of spans opened at or after `since_ns`
  /// cover, and the Chrome trace written to `path` (when not empty).
  void finish_trace(const SpanRecorder& rec, double untraced_s,
                    double replay_s, std::int64_t since_ns, double traced_s,
                    const std::string& path);

  /// The one-line JSON result: correct, attempted, failed, metrics.
  std::string json() const;

  /// Every metric is finite and every end-to-end value is positive.
  bool well_formed(std::string* why) const;

 private:
  void add(const std::string& name, double value);

  bool traced_;
  bool correct_ = true;
  std::vector<std::string> order_;
  std::map<std::string, MetricValue> metrics_;
};

/// Wall-clock seconds since `t0`.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Median of a non-empty sample.
double median(std::vector<double> v);

/// Writes `text` to `path`; false on failure.
bool write_file(const std::string& path, const std::string& text);

}  // namespace perfbench
