// sweep and validate: the paper's own experiment through run_sweep.
//
// One event is one run_sweep call at threads=1 over one scenario of the
// paper grid's first kScenarios, on its full utilization grid, with all
// five analyses; call i sweeps scenario i mod kScenarios from its own
// seed.  validate additionally enables the simulator with cross-checking
// (worst mode, 100 ms horizon).  Set-up is a warm-up run_sweep over all
// kScenarios scenarios, repeated and reported as its median.
//
// The traced run replays the engine's per-item loop with public
// functions only and must reproduce every call's accept counts.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/interface.hpp"
#include "exp/engine.hpp"
#include "exp/grid.hpp"
#include "exp/validate.hpp"
#include "gen/taskset_gen.hpp"
#include "partition/federated.hpp"
#include "percentile.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dpcp;

// Mirrors of exp/engine.cpp's private sub-stream salts; the replay's
// accept and cross-check counts catch any drift.
constexpr std::uint64_t kSimColumnSalt = 0x53494D00ull;  // "SIM"
constexpr std::uint64_t kValidateSalt = 0x56414C00ull;   // "VAL"

constexpr int kScenarios = 8;  // first:8 of the paper grid
constexpr int kSetupRepeats = 5;
constexpr std::uint64_t kWarmupSalt = 0xBE7C4ull;

/// The checked outputs of one sweep call.
struct CallOutcome {
  std::vector<std::int64_t> accepts;  // per column; the sim column last
  std::vector<std::int64_t> checked;  // validate: accepts cross-checked
  std::int64_t sets = 0;              // task sets generated
  std::int64_t abandoned = 0;         // task sets the generator gave up on
  std::int64_t unsound = 0;
  std::int64_t invariant_violations = 0;

  bool operator==(const CallOutcome& o) const {
    return accepts == o.accepts && checked == o.checked && sets == o.sets &&
           abandoned == o.abandoned && unsound == o.unsound &&
           invariant_violations == o.invariant_violations;
  }
};

/// Counts the traced replay gathers alongside its spans.
struct LayerCounts {
  explicit LayerCounts(std::size_t kinds)
      : oracle_calls(kinds, 0), accepts(kinds, 0), rounds(kinds, 0) {}
  GenStats gen;
  std::int64_t gen_calls = 0;
  std::int64_t tasks_generated = 0;
  std::int64_t paths_visited = 0;
  std::int64_t paths_truncated = 0;
  std::vector<std::int64_t> oracle_calls, accepts, rounds;  // per analysis
  std::int64_t sim_runs = 0, sim_events = 0, sim_preemptions = 0;
  std::int64_t checks = 0, unsound = 0;
};

struct Setup {
  std::vector<Scenario> scenarios;
  std::vector<AnalysisKind> kinds;
  bool validate = false;
  int samples = 1;  // per utilization point per call
  SweepOptions options(std::uint64_t seed, int samples_per_point) const {
    SweepOptions o;
    o.samples_per_point = samples_per_point;
    o.seed = seed;
    o.threads = 1;
    o.sim.enabled = validate;
    o.sim.validate = validate;
    return o;
  }
};

std::uint64_t call_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng r = Rng(seed).fork(salt);
  return r.raw();
}

CallOutcome outcome_of(const SweepResult& r) {
  CallOutcome out;
  for (const AcceptanceCurve& curve : r.curves) {
    if (out.accepts.empty()) out.accepts.assign(curve.accepted.size(), 0);
    for (std::size_t a = 0; a < curve.accepted.size(); ++a)
      for (std::int64_t v : curve.accepted[a]) out.accepts[a] += v;
    for (std::int64_t v : curve.samples) out.sets += v;
  }
  out.abandoned = r.gen_stats.failures;
  for (const AnalysisValidation& av : r.validation.analyses) {
    out.checked.push_back(av.accepts_checked);
    out.unsound += av.unsound_accepts;
    out.invariant_violations += av.invariant_violations;
  }
  for (const auto& per_point : r.sim_stats)
    for (const SimPointStats& sp : per_point)
      out.invariant_violations += sp.invariant_violations;
  return out;
}

/// Span names per analysis kind (stable storage for the recorder).
const char* analysis_span(std::size_t a) {
  static const char* names[] = {"analysis.ep", "analysis.en", "analysis.spin",
                                "analysis.lpp", "analysis.fed"};
  return names[a];
}

/// The engine's per-item loop for one call, rebuilt from public
/// functions: generation, a shared session, every analysis's Algorithm-1
/// test, and — when validating — the cross-checks and the sim column.
CallOutcome replay_call(const Setup& setup,
                        const std::vector<Scenario>& scenarios,
                        std::uint64_t seed, int samples, SpanRecorder& rec,
                        LayerCounts& counts) {
  SpanRecorder::Scope call_span(rec, "bench");
  const std::size_t n_acol = setup.kinds.size();
  std::vector<std::unique_ptr<SchedAnalysis>> analyses;
  std::vector<const PlacementStrategy*> strategies;
  std::vector<std::optional<SimProtocol>> protocols;
  for (AnalysisKind k : setup.kinds) {
    analyses.push_back(make_analysis(k));
    strategies.push_back(analyses.back()->placement() ==
                                 ResourcePlacement::kNone
                             ? nullptr
                             : &placement_strategy(PlacementKind::kWfd));
    protocols.push_back(setup.validate ? sim_protocol_for(k) : std::nullopt);
  }
  SimBackendOptions sim_opts;
  sim_opts.enabled = setup.validate;
  sim_opts.validate = setup.validate;
  const std::int64_t max_paths = AnalysisOptions().max_paths;

  CallOutcome out;
  out.accepts.assign(n_acol + (setup.validate ? 1 : 0), 0);
  if (setup.validate) out.checked.assign(n_acol, 0);
  GenStats call_gen;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& scenario = scenarios[s];
    const std::vector<double> grid = utilization_grid(scenario);
    const std::uint64_t base = scenario_seed(seed, s);
    for (std::size_t point = 0; point < grid.size(); ++point) {
      for (std::size_t sample = 0; sample < static_cast<std::size_t>(samples);
           ++sample) {
        GenParams params;
        params.scenario = scenario;
        params.total_utilization = grid[point];
        Rng rng = Rng(base).fork((point << 20) ^ sample);
        std::optional<TaskSet> ts;
        {
          SpanRecorder::Scope span(rec, "gen");
          ts = generate_taskset(rng, params, &call_gen);
        }
        ++counts.gen_calls;
        if (!ts) continue;
        ++out.sets;
        counts.tasks_generated += ts->size();
        AnalysisSession session(*ts);
        {
          SpanRecorder::Scope span(rec, "analysis.paths");
          for (int i = 0; i < ts->size(); ++i) {
            const PathSlab& slab = session.paths(i, max_paths);
            counts.paths_visited += slab.paths_visited;
            counts.paths_truncated += slab.truncated ? 1 : 0;
          }
        }
        {
          SpanRecorder::Scope span(rec, "partition.federated");
          const auto part = initial_federated_partition(*ts, scenario.m);
          (void)part;
        }
        for (std::size_t a = 0; a < n_acol; ++a) {
          PartitionOutcome outcome;
          {
            SpanRecorder::Scope span(rec, analysis_span(a));
            outcome = analyses[a]->test(session, scenario.m, strategies[a]);
          }
          counts.oracle_calls[a] += outcome.oracle_calls;
          counts.rounds[a] += outcome.rounds;
          if (!outcome.schedulable) continue;
          ++out.accepts[a];
          ++counts.accepts[a];
          if (!protocols[a]) continue;
          Rng check_rng = rng.fork(kValidateSalt + a);
          SpanRecorder::Scope span(rec, "validate");
          const SimConfig cfg = sample_sim_config(sim_opts, *ts, check_rng);
          const CrossCheckResult cc =
              cross_check_accept(*ts, outcome, *protocols[a], cfg);
          ++out.checked[a];
          ++counts.checks;
          out.invariant_violations += cc.verdict.invariant_violations;
          if (cc.unsound) {
            ++out.unsound;
            ++counts.unsound;
          }
        }
        if (!setup.validate) continue;
        std::optional<Partition> part;
        {
          SpanRecorder::Scope span(rec, "partition.baseline");
          part = baseline_partition(*ts, scenario.m);
        }
        if (!part) continue;
        Rng sim_rng = rng.fork(kSimColumnSalt);
        SimConfig cfg = sample_sim_config(sim_opts, *ts, sim_rng);
        cfg.protocol = SimProtocol::kDpcpP;
        SimResult res;
        {
          SpanRecorder::Scope span(rec, "sim");
          res = simulate(*ts, *part, cfg);
        }
        const SimVerdict v = classify_sim(res);
        ++counts.sim_runs;
        counts.sim_events += res.events_processed;
        counts.sim_preemptions += res.preemptions;
        out.invariant_violations += v.invariant_violations;
        if (v.schedulable) ++out.accepts[n_acol];
      }
    }
  }
  out.abandoned = call_gen.failures;
  counts.gen.merge(call_gen);
  return out;
}

std::string describe(const CallOutcome& o) {
  std::string s = "sets=" + std::to_string(o.sets) + " accepts=";
  for (std::int64_t v : o.accepts) s += std::to_string(v) + ",";
  s += " checked=";
  for (std::int64_t v : o.checked) s += std::to_string(v) + ",";
  return s + " unsound=" + std::to_string(o.unsound) +
         " violations=" + std::to_string(o.invariant_violations);
}

}  // namespace

RunResult run_sweep_workload(const RunConfig& config, bool validate) {
  RunResult result(config.trace);
  Setup setup;
  setup.validate = validate;
  setup.kinds = all_analysis_kinds();
  setup.scenarios = *scenarios_from_spec("first:" + std::to_string(kScenarios));
  // Per-call task sets: 19 utilization points x samples.  validate costs
  // about three times more per set, so it sweeps one sample per point.
  setup.samples = validate ? 1 : 2;
  const std::uint64_t warm_seed = call_seed(config.seed, kWarmupSalt);

  // ---- set-up: the warm-up slice (every scenario at the per-call sample
  // count), repeated ----------------------------------------------------------
  std::vector<double> setup_times;
  std::vector<CallOutcome> warmups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const SweepResult res = run_sweep(setup.scenarios, setup.kinds,
                                      setup.options(warm_seed, setup.samples));
    setup_times.push_back(seconds_since(t0));
    warmups.push_back(outcome_of(res));
  }
  for (const CallOutcome& w : warmups)
    result.check(w == warmups.front(),
                 "warm-up run_sweep is not deterministic: " + describe(w) +
                     " vs " + describe(warmups.front()));

  // ---- timed phase ----------------------------------------------------------
  const std::size_t min_calls = min_samples_for(90);
  std::vector<double> latency_ms;
  std::vector<CallOutcome> calls;
  std::int64_t sets = 0, attempted = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double wall = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    const auto c0 = std::chrono::steady_clock::now();
    const SweepResult res = run_sweep(
        {setup.scenarios[i % kScenarios]}, setup.kinds,
        setup.options(call_seed(config.seed, i), setup.samples));
    latency_ms.push_back(seconds_since(c0) * 1e3);
    result.check(res.validation.sound(),
                 "call " + std::to_string(i) + ": ValidationReport not sound");
    calls.push_back(outcome_of(res));
    sets += calls.back().sets;
    attempted += calls.back().sets + calls.back().abandoned;
    wall = seconds_since(t0);
    if (calls.size() >= min_calls && wall >= config.seconds) break;
  }
  std::int64_t abandoned = 0;
  for (const CallOutcome& c : calls) abandoned += c.abandoned;
  result.attempted = attempted;
  result.failed = abandoned;

  // ---- output checks (every run) --------------------------------------------
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const CallOutcome& c = calls[i];
    result.check(c.sets > 0, "call " + std::to_string(i) + " generated nothing");
    if (validate) {
      result.check(c.unsound == 0,
                   "call " + std::to_string(i) + " has refuted accepts: " +
                       describe(c));
      result.check(c.invariant_violations == 0,
                   "call " + std::to_string(i) +
                       " has simulator invariant violations: " + describe(c));
    }
  }
  for (const CallOutcome& w : warmups)
    result.check(!validate || (w.unsound == 0 && w.invariant_violations == 0),
                 "warm-up slice is not sound: " + describe(w));
  {
    // The per-item replay must reproduce run_sweep on the warm-up slice.
    SpanRecorder off(false);
    LayerCounts scratch(setup.kinds.size());
    const CallOutcome replay =
        replay_call(setup, setup.scenarios, warm_seed, setup.samples, off,
                    scratch);
    result.check(replay == warmups.front(),
                 "per-item replay of the warm-up slice differs from "
                 "run_sweep: " +
                     describe(replay) + " vs " + describe(warmups.front()));
  }

  if (!config.trace) {
    EndToEnd m;
    m.setup_s = setup_times;
    m.latency_ms = latency_ms;
    m.wall_s = wall;
    m.tasksets = static_cast<double>(sets);
    for (std::size_t i = 0; i < min_calls; ++i) {  // fixed base
      m.accepts += static_cast<double>(calls[i].accepts[0]);
      m.accept_base += static_cast<double>(calls[i].sets);
    }
    result.set_end_to_end(m);
    std::fprintf(stderr,
                 "perfbench %s: %zu calls, %lld task sets in %.3f s; "
                 "latency percentiles over %zu calls\n",
                 validate ? "validate" : "sweep", calls.size(),
                 static_cast<long long>(sets), wall, latency_ms.size());
    return result;
  }

  // ---- traced replay of the timed calls ---------------------------------------
  SpanRecorder rec(true);
  LayerCounts counts(setup.kinds.size());
  const std::int64_t since = rec.now_ns();
  const auto r0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const CallOutcome replay =
        replay_call(setup, {setup.scenarios[i % kScenarios]},
                    call_seed(config.seed, i), setup.samples, rec, counts);
    result.check(replay == calls[i],
                 "traced replay of call " + std::to_string(i) +
                     " differs from run_sweep: " + describe(replay) + " vs " +
                     describe(calls[i]));
  }
  const double replay_s = seconds_since(r0);
  result.finish_trace(rec, wall, replay_s, since, replay_s, config.trace_path);
  result.set_gen(counts.gen, counts.gen_calls, counts.tasks_generated);
  result.set("analysis.paths.visited",
             static_cast<double>(counts.paths_visited));
  result.set("analysis.paths.truncated",
             static_cast<double>(counts.paths_truncated));
  for (std::size_t a = 0; a < setup.kinds.size(); ++a) {
    const std::string k = analysis_kind_token(setup.kinds[a]);
    result.set("analysis." + k + ".oracle_calls",
               static_cast<double>(counts.oracle_calls[a]));
    result.set("analysis." + k + ".accepts",
               static_cast<double>(counts.accepts[a]));
    result.set("partition." + k + ".rounds",
               static_cast<double>(counts.rounds[a]));
  }
  const auto totals = rec.totals();
  const auto sim_it = totals.find("sim");
  result.set("sim.runs", static_cast<double>(counts.sim_runs));
  result.set("sim.events", static_cast<double>(counts.sim_events));
  result.set("sim.preemptions", static_cast<double>(counts.sim_preemptions));
  if (sim_it != totals.end() && sim_it->second.busy_ns > 0)
    result.set("sim.events_per_s",
               static_cast<double>(counts.sim_events) /
                   (static_cast<double>(sim_it->second.busy_ns) * 1e-9));
  result.set("validate.checks", static_cast<double>(counts.checks));
  result.set("validate.unsound", static_cast<double>(counts.unsound));
  return result;
}

}  // namespace perfbench
