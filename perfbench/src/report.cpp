#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "percentile.hpp"

namespace perfbench {
namespace {

using Catalogue = std::vector<std::pair<std::string, std::string>>;

/// End-to-end metric names with their units, in report order.
const Catalogue& end_to_end_catalogue() {
  static const Catalogue c{
      {"setup_s", "s"},          {"tasksets_per_s", "1/s"},
      {"events_per_s", "1/s"},   {"event_p50_ms", "ms"},
      {"event_p90_ms", "ms"},    {"accept_ppm", "ppm"},
      {"peak_rss_mb", "MB"},
  };
  return c;
}

/// Per-layer metric names with their units, in report order.
const Catalogue& layer_catalogue() {
  static const Catalogue c = [] {
    Catalogue v{
        {"gen.busy_s", "s"},
        {"gen.calls", "count"},
        {"gen.task_retries", "count"},
        {"gen.rfs_rejections", "count"},
        {"gen.failures", "count"},
        {"gen.task_yield", "ratio"},
        {"analysis.paths.busy_s", "s"},
        {"analysis.paths.visited", "count"},
        {"analysis.paths.truncated", "count"},
    };
    for (const char* k : {"ep", "en", "spin", "lpp", "fed"}) {
      const std::string a = std::string("analysis.") + k;
      v.push_back({a + ".busy_s", "s"});
      v.push_back({a + ".oracle_calls", "count"});
      v.push_back({a + ".accepts", "count"});
      v.push_back({std::string("partition.") + k + ".rounds", "count"});
    }
    const Catalogue rest{
        {"partition.federated.busy_s", "s"},
        {"partition.baseline.busy_s", "s"},
        {"sim.busy_s", "s"},
        {"sim.runs", "count"},
        {"sim.events", "count"},
        {"sim.events_per_s", "1/s"},
        {"sim.preemptions", "count"},
        {"validate.busy_s", "s"},
        {"validate.checks", "count"},
        {"validate.unsound", "count"},
        {"admission.admit.busy_s", "s"},
        {"admission.depart.busy_s", "s"},
        {"admission.oracle_calls", "count"},
        {"admission.tasks_reused", "count"},
        {"admission.reuse_ratio", "ratio"},
        {"admission.delta_accepts", "count"},
        {"admission.replace_accepts", "count"},
        {"admission.repair_accepts", "count"},
        {"admission.readmits", "count"},
        {"admission.evictions", "count"},
        {"admission.rung.delta.busy_s", "s"},
        {"admission.rung.delta.events", "count"},
        {"admission.rung.replace.busy_s", "s"},
        {"admission.rung.replace.events", "count"},
        {"admission.rung.repair.busy_s", "s"},
        {"admission.rung.repair.events", "count"},
        {"admission.rung.none.busy_s", "s"},
        {"admission.rung.none.events", "count"},
        {"opt.repair.busy_s", "s"},
        {"opt.repair.events", "count"},
        {"opt.repair.calls", "count"},
        {"io.parse.busy_s", "s"},
        {"io.parse.bytes", "bytes"},
        {"serve.feed.busy_s", "s"},
        {"serve.self_s", "s"},
        {"bench.self_s", "s"},
        {"trace.untraced_s", "s"},
        {"trace.replay_s", "s"},
        {"trace.overhead_pct", "%"},
        {"trace.self_coverage", "ratio"},
        {"trace.spans", "count"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return c;
}

}  // namespace

RunResult::RunResult(bool traced) : traced_(traced) {
  for (const auto& [name, unit] :
       traced ? layer_catalogue() : end_to_end_catalogue()) {
    order_.push_back(name);
    metrics_[name] = MetricValue{0.0, unit};
  }
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

void RunResult::set(const std::string& name, double value) {
  const auto it = metrics_.find(name);
  if (it == metrics_.end())
    throw std::logic_error("metric not in the " +
                           std::string(traced_ ? "per-layer" : "end-to-end") +
                           " catalogue: " + name);
  it->second.value = value;
}

void RunResult::add(const std::string& name, double value) {
  const auto it = metrics_.find(name);
  if (it == metrics_.end())
    throw std::logic_error("metric not in the catalogue: " + name);
  it->second.value += value;
}

void RunResult::set_end_to_end(const EndToEnd& m) {
  set("setup_s", median(m.setup_s));
  set("tasksets_per_s", m.tasksets / m.wall_s);
  set("events_per_s", static_cast<double>(m.latency_ms.size()) / m.wall_s);
  set("event_p50_ms", percentile(m.latency_ms, 50).value().value);
  set("event_p90_ms", percentile(m.latency_ms, 90).value().value);
  set("accept_ppm", 1e6 * m.accepts / m.accept_base);
  set("peak_rss_mb", peak_rss_mb());
}

void RunResult::set_gen(const dpcp::GenStats& stats, std::int64_t calls,
                        std::int64_t tasks) {
  set("gen.calls", static_cast<double>(calls));
  set("gen.task_retries", static_cast<double>(stats.task_retries));
  set("gen.rfs_rejections", static_cast<double>(stats.rfs.rejections));
  set("gen.failures", static_cast<double>(stats.failures));
  set("gen.task_yield", static_cast<double>(tasks) /
                            static_cast<double>(tasks + stats.task_retries));
}

void RunResult::finish_trace(const SpanRecorder& rec, double untraced_s,
                             double replay_s, std::int64_t since_ns,
                             double traced_s, const std::string& path) {
  std::int64_t spans = 0;
  for (const auto& [layer, t] : rec.totals()) {
    spans += t.count;
    const std::string busy = layer + ".busy_s";
    if (metrics_.count(busy)) add(busy, static_cast<double>(t.busy_ns) * 1e-9);
    const std::string self = layer + ".self_s";
    if (metrics_.count(self)) add(self, static_cast<double>(t.self_ns) * 1e-9);
  }
  set("trace.spans", static_cast<double>(spans));
  set("trace.untraced_s", untraced_s);
  set("trace.replay_s", replay_s);
  set("trace.overhead_pct", (replay_s / untraced_s - 1.0) * 100.0);
  set("trace.self_coverage",
      static_cast<double>(rec.self_ns_since(since_ns)) * 1e-9 / traced_s);
  if (!path.empty() && !write_file(path, rec.chrome_json(50000)))
    std::cerr << "perfbench: cannot write " << path << "\n";
}

std::string RunResult::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const MetricValue& m = metrics_.at(name);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

bool RunResult::well_formed(std::string* why) const {
  for (const auto& [name, m] : metrics_) {
    if (!std::isfinite(m.value)) {
      *why = name + " is not finite";
      return false;
    }
    if (!traced_ && !(m.value > 0.0)) {
      *why = name + " is not positive";
      return false;
    }
  }
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace perfbench
