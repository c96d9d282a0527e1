// admit: the line-protocol admission service, one closed-loop client.
//
// The client feeds CommandSession one line at a time at server defaults
// and waits for each event's reply before choosing the next event.  The
// stream is shaped like bench_admit's: scenario (a)'s platform, sparse
// sharing (24 resources, p_r 0.1, short request bursts), a light-task
// mix, churn whose departure probability grows with the resident count
// (resident/60, capped at 0.85) so the service stays near capacity, and
// newest-first departures.  Every arrival submits a freshly generated
// one-task payload; the coin flips come from a seeded stream.
//
// The run is a series of service lifetimes of kSessionEvents events each:
// a fresh session, the `load` of an initial resident set (the set-up,
// reported as the median over every load), then the events.  Each
// session's inputs are generated from (seed, session) before it starts,
// outside the timed window, so no single generated task recurs in every
// session.  Bounded lifetimes keep one run's events comparable from first
// to last: a session's memory grows with its churn, and an unbounded one
// would make the later events of a faster program slower.
//
// Checks: no `error` reply; a direct-call replay through
// taskset_from_text + AdmissionController makes the same decisions; and
// the last session's `snapshot` restores in a fresh CommandSession with
// an identical `query`.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "client.hpp"
#include "gen/scenario.hpp"
#include "gen/taskset_gen.hpp"
#include "io/taskset_io.hpp"
#include "percentile.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dpcp;

constexpr int kResources = 24;
constexpr std::size_t kSessionEvents = 1000;
constexpr int kWarmupLoads = 8;
constexpr std::size_t kWarmupSession = std::size_t{1} << 20;  // own stream
constexpr double kCapacity = 60.0;
/// A session can fall into a readmission storm (every departure re-runs
/// the repair search for each queued task, ~0.5 s per event), so the
/// minimum of one whole session yields to a hard cap on event time.
constexpr double kHardCapFactor = 2.0;

/// The generator behind every payload, with its health counters.
class Generator {
 public:
  explicit Generator(SpanRecorder& rec) : rec_(rec) {
    Scenario scenario = fig2_scenario('a');
    scenario.nr_min = scenario.nr_max = kResources;
    scenario.p_r = 0.1;
    scenario.n_req_max = 5;
    params_.scenario = scenario;
    params_.total_utilization = 0.15 * scenario.m;
    params_.light_tasks = 12;
    params_.light_util_min = 0.05;
    params_.light_util_max = 0.25;
  }

  std::optional<TaskSet> generate(Rng rng) {
    SpanRecorder::Scope span(rec_, "gen");
    ++calls;
    auto ts = generate_taskset(rng, params_, &stats);
    if (ts) tasks += ts->size();
    return ts;
  }

  GenStats stats;
  std::int64_t calls = 0, tasks = 0;

 private:
  SpanRecorder& rec_;
  GenParams params_;
};

/// One session's inputs, all from (seed, session): the initial resident
/// set, a payload per possible arrival, and the coin flips.
struct SessionInputs {
  std::string load_text;
  std::vector<std::string> load_lines;
  std::vector<std::string> task_text;  // one-task payloads
  std::uint64_t draw_seed = 0;
};

SessionInputs make_session(std::uint64_t seed, std::size_t session,
                           Generator& gen) {
  const Rng root = Rng(seed).fork(session);
  SessionInputs in;
  in.draw_seed = root.fork(2).fork(0).raw();
  const Rng load = root.fork(3);
  for (std::uint64_t k = 1; in.load_text.empty(); ++k)
    if (const auto ts = gen.generate(load.fork(k)))
      in.load_text = taskset_to_text(*ts);
  in.load_lines = split_lines(in.load_text);
  const Rng refills = root.fork(1);
  for (std::uint64_t k = 1; in.task_text.size() < kSessionEvents; ++k) {
    const auto ts = gen.generate(refills.fork(k));
    if (!ts) continue;
    for (int i = 0; i < ts->size() && in.task_text.size() < kSessionEvents;
         ++i) {
      TaskSet one(kResources);
      one.adopt_task(ts->task(i));
      in.task_text.push_back(taskset_to_text(one));
    }
  }
  return in;
}

/// The closed-loop client of one session: picks each event from its view
/// of the resident set, which it keeps from the replies alone.
class Client {
 public:
  explicit Client(const SessionInputs& in) : draws_(in.draw_seed) {}

  struct Event {
    bool depart = false;
    int id = -1;           // departing id
    std::size_t task = 0;  // payload index of the arrival
  };

  Event next() {
    const double p =
        std::min(0.85, static_cast<double>(resident_.size()) / kCapacity);
    const double u = draws_.canonical();
    if (resident_.size() > 2 && u < p) return {true, resident_.back(), 0};
    return {false, -1, next_task_++};
  }

  void observe(const EventOutcome& o) {
    const auto gone = std::find(resident_.begin(), resident_.end(), o.gone);
    if (o.gone_resident && gone != resident_.end()) resident_.erase(gone);
    for (const Decision& d : o.decisions)
      if (d.accepted) resident_.push_back(d.id);
  }

  const std::vector<int>& resident() const { return resident_; }

 private:
  Rng draws_;
  std::size_t next_task_ = 0;
  std::vector<int> resident_;  // external ids in admission order
};

/// One service lifetime through the line protocol.
class LineSession {
 public:
  explicit LineSession(const SessionInputs& in)
      : in_(in),
        session_(out_, ServeOptions{}),
        client_(in) {}

  /// Feeds the `load`; returns its wall time in seconds.
  double load(RunResult& result) {
    const auto t0 = std::chrono::steady_clock::now();
    session_.feed("load");
    for (const std::string& line : in_.load_lines) session_.feed(line);
    session_.feed(".");
    const double s = seconds_since(t0);
    const EventOutcome o = parse_reply(take());
    result.check(o.errors == 0 && !o.decisions.empty(), "`load` failed");
    client_.observe(o);
    return s;
  }

  /// One event; `latency_ms` receives the time from its first line fed to
  /// its reply.
  EventOutcome event(SpanRecorder& rec, double* latency_ms) {
    const Client::Event ev = client_.next();
    const std::vector<std::string> lines =
        ev.depart ? std::vector<std::string>{"depart " + std::to_string(ev.id)}
                  : split_lines("admit\n" + in_.task_text[ev.task] + ".\n");
    const auto t0 = std::chrono::steady_clock::now();
    {
      SpanRecorder::Scope span(rec, "serve.feed");
      for (const std::string& line : lines) session_.feed(line);
    }
    *latency_ms = seconds_since(t0) * 1e3;
    EventOutcome o = parse_reply(take());
    client_.observe(o);
    return o;
  }

  /// Snapshots the session and checks the restore in a fresh one.
  void check_snapshot(RunResult& result) {
    session_.feed("snapshot");
    const std::string reply = take();
    const std::size_t begin = reply.find("snapshot begin\n");
    const std::size_t end = reply.rfind("\n.\n");
    if (begin == std::string::npos || end == std::string::npos) {
      result.check(false, "snapshot reply is not framed");
      return;
    }
    const std::size_t body = begin + std::string("snapshot begin\n").size();
    const std::string text = reply.substr(body, end + 1 - body);
    const std::size_t retry_at = reply.find(" retry=", end);
    const std::size_t retry =
        retry_at == std::string::npos ? 0
                                      : std::stoul(reply.substr(retry_at + 7));
    session_.feed("query");
    const QueryRows rows = parse_query(take());
    std::vector<int> ids;
    for (const auto& row : rows) ids.push_back(row.first);
    result.check(ids == client_.resident(),
                 "the client's resident view differs from `query`");
    check_restore(text, ServeOptions{}, rows, retry, result);
    result.check(!session_.saw_error(), "the session replied with an error");
  }

 private:
  std::string take() {
    std::string s = out_.str();
    out_.str("");
    return s;
  }

  const SessionInputs& in_;
  std::ostringstream out_;
  CommandSession session_;
  Client client_;
};

/// The untraced timed phase: sessions until `seconds` of events have run
/// and the first session is complete, or until the hard cap.
struct Pass {
  std::vector<EventOutcome> events;
  std::vector<double> latency_ms;
  std::vector<std::size_t> session_events;  // events per session
  std::vector<double> load_s;
  double wall_s = 0.0;  // time spent in events (loads excluded)
  std::int64_t arrivals = 0;
  std::int64_t head_arrivals = 0, head_accepts = 0;  // first session
};

Pass run_timed(std::uint64_t seed, Generator& gen, double seconds,
               RunResult& result) {
  Pass pass;
  SpanRecorder off(false);
  for (std::size_t k = 0;; ++k) {
    const SessionInputs inputs = make_session(seed, k, gen);
    bool done = false;
    {
      LineSession session(inputs);
      pass.load_s.push_back(session.load(result));
      const auto t0 = std::chrono::steady_clock::now();
      std::size_t n = 0;
      while (n < kSessionEvents && !done) {
        double ms = 0.0;
        pass.events.push_back(session.event(off, &ms));
        pass.latency_ms.push_back(ms);
        ++n;
        const EventOutcome& o = pass.events.back();
        if (o.gone < 0) {
          ++pass.arrivals;
          if (k == 0) {
            ++pass.head_arrivals;
            pass.head_accepts +=
                !o.decisions.empty() && o.decisions[0].accepted;
          }
        }
        const double wall = pass.wall_s + seconds_since(t0);
        done = (pass.events.size() >= kSessionEvents && wall >= seconds) ||
               wall >= kHardCapFactor * seconds;
      }
      pass.wall_s += seconds_since(t0);
      pass.session_events.push_back(n);
      if (done) session.check_snapshot(result);
    }
    if (done) return pass;
  }
}

/// Counters the direct-call replay collects for the traced report.
struct DirectCounts {
  std::int64_t parse_bytes = 0;
  std::int64_t rung_ns[4] = {0, 0, 0, 0};  // delta, replace, repair, none
  std::int64_t rung_events[4] = {0, 0, 0, 0};
  std::int64_t repair_events = 0, repair_ns = 0, repair_calls = 0;
  AdmissionStats stats;
};

int rung_index(const Decision& d) {
  if (!d.accepted) return 3;
  if (d.rung == "delta") return 0;
  if (d.rung == "replace") return 1;
  return 2;
}

/// True when an admission the controller recorded after the first
/// `before` records escalated to the repair search.
bool reached_repair(const AdmissionController& ctrl, std::size_t before) {
  const DecisionTrace& trace = ctrl.decision_trace();
  for (const DecisionRecord& r : trace.last(trace.recorded() - before))
    if (std::string(r.kind) != "depart" && r.streak_reset) return true;
  return false;
}

/// Replays the first `sessions` sessions' events through taskset_from_text
/// and direct AdmissionController calls, checking every decision against
/// the line protocol's.  Returns the time the events took.
double run_direct(std::uint64_t seed, const Pass& pass, std::size_t sessions,
                  Generator& gen, SpanRecorder& rec, DirectCounts& counts,
                  RunResult& result) {
  const ServeOptions serve;
  AdmitOptions options;
  options.m = serve.m;
  options.kind = serve.kind;
  options.analysis = serve.analysis;
  options.repair_evals = serve.repair_evals;
  options.retry_capacity = serve.retry_capacity;
  options.seed = serve.seed;
  std::size_t e = 0;
  double events_s = 0.0;
  for (std::size_t k = 0; k < sessions; ++k) {
    const SessionInputs in = make_session(seed, k, gen);
    const auto initial = taskset_from_text(in.load_text);
    AdmissionController ctrl(initial->num_resources(), options);
    Client client(in);
    EventOutcome load;
    for (int i = 0; i < initial->size(); ++i)
      load.decisions.push_back(Decision::of(ctrl.admit(initial->task(i))));
    client.observe(load);
    const auto d0 = std::chrono::steady_clock::now();
    for (std::size_t j = 0; j < pass.session_events[k]; ++j, ++e) {
      SpanRecorder::Scope event_span(rec, "bench");
      const Client::Event ev = client.next();
      const std::size_t before = ctrl.decision_trace().recorded();
      EventOutcome got;
      const std::int64_t t0 = rec.now_ns();
      if (ev.depart) {
        SpanRecorder::Scope span(rec, "admission.depart");
        const DepartOutcome d = ctrl.depart(ev.id);
        got.gone = d.found ? ev.id : -1;
        got.gone_resident = d.was_resident;
        for (const AdmitDecision& r : d.readmitted)
          got.decisions.push_back(Decision::of(r));
      } else {
        std::optional<TaskSet> ts;
        {
          SpanRecorder::Scope span(rec, "io.parse");
          ts = taskset_from_text(in.task_text[ev.task]);
        }
        counts.parse_bytes +=
            static_cast<std::int64_t>(in.task_text[ev.task].size());
        const std::int64_t a0 = rec.now_ns();
        {
          SpanRecorder::Scope span(rec, "admission.admit");
          got.decisions.push_back(Decision::of(ctrl.admit(ts->task(0))));
        }
        const int r = rung_index(got.decisions[0]);
        counts.rung_ns[r] += rec.now_ns() - a0;
        ++counts.rung_events[r];
      }
      if (reached_repair(ctrl, before)) {
        ++counts.repair_events;
        counts.repair_ns += rec.now_ns() - t0;
        for (const Decision& d : got.decisions) counts.repair_calls += d.cost;
      }
      client.observe(got);
      if (!(got == pass.events[e])) {
        result.check(false, "direct-call replay differs from the line "
                            "protocol at event " +
                                std::to_string(e) + ": " + describe(got) +
                                " vs " + describe(pass.events[e]));
        return events_s;
      }
    }
    events_s += seconds_since(d0);
    const AdmissionStats& s = ctrl.stats();
    counts.stats.oracle_calls += s.oracle_calls;
    counts.stats.tasks_reused += s.tasks_reused;
    counts.stats.delta_accepts += s.delta_accepts;
    counts.stats.replace_accepts += s.replace_accepts;
    counts.stats.repair_accepts += s.repair_accepts;
    counts.stats.readmits += s.readmits;
    counts.stats.retry_evictions += s.retry_evictions;
  }
  return events_s;
}

}  // namespace

RunResult run_admit_workload(const RunConfig& config) {
  RunResult result(config.trace);
  SpanRecorder rec(config.trace);
  Generator gen(rec);

  std::vector<double> setup_times;
  {
    // An untimed session first: the allocator and caches reach their
    // steady state before the timed sessions start.
    const SessionInputs warm_inputs =
        make_session(config.seed, kWarmupSession, gen);
    for (int r = 0; r < kWarmupLoads; ++r)
      setup_times.push_back(
          LineSession(warm_inputs).load(result));
    LineSession warm(warm_inputs);
    warm.load(result);
    SpanRecorder off(false);
    double ms = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t j = 0; j < kSessionEvents && seconds_since(t0) < 2.0; ++j)
      warm.event(off, &ms);
  }
  const Pass pass = run_timed(config.seed, gen, config.seconds, result);
  setup_times.insert(setup_times.end(), pass.load_s.begin(),
                     pass.load_s.end());
  std::int64_t errors = 0;
  for (const EventOutcome& e : pass.events) errors += e.errors;
  result.attempted = static_cast<std::int64_t>(pass.events.size());
  result.failed = errors;
  result.check(errors == 0,
               std::to_string(errors) + " error replies in the timed phase");

  if (!config.trace) {
    EndToEnd m;
    m.setup_s = setup_times;
    m.latency_ms = pass.latency_ms;
    m.wall_s = pass.wall_s;
    m.tasksets = static_cast<double>(pass.arrivals);
    m.accepts = static_cast<double>(pass.head_accepts);
    m.accept_base = static_cast<double>(pass.head_arrivals);
    result.set_end_to_end(m);
    // Every run: the direct-call replay agrees on the first session.
    SpanRecorder off(false);
    DirectCounts scratch;
    Generator quiet(off);
    run_direct(config.seed, pass, 1, quiet, off, scratch, result);
    const auto p99 = percentile(pass.latency_ms, 99);
    const auto slowest =
        std::max_element(pass.latency_ms.begin(), pass.latency_ms.end());
    std::fprintf(stderr,
                 "perfbench admit: %zu events (%lld arrivals) in %zu "
                 "sessions, %.3f s; p99 %.4f ms over %zu events; slowest "
                 "%.1f ms (event %zd)\n",
                 pass.events.size(), static_cast<long long>(pass.arrivals),
                 pass.session_events.size(), pass.wall_s,
                 p99 ? p99->value : -1.0, pass.latency_ms.size(), *slowest,
                 slowest - pass.latency_ms.begin());
    return result;
  }

  // ---- traced re-executions of the same events ---------------------------------
  // Inputs are generated again, untraced, before each session, as in the
  // timed phase; spans cover the events only.
  SpanRecorder off(false);
  Generator quiet(off);
  const std::int64_t since = rec.now_ns();
  double replay_s = 0.0;  // time in events, as pass.wall_s
  std::size_t e = 0;
  for (std::size_t k = 0; k < pass.session_events.size(); ++k) {
    const SessionInputs inputs = make_session(config.seed, k, quiet);
    LineSession session(inputs);
    session.load(result);
    const auto r0 = std::chrono::steady_clock::now();
    bool same = true;
    for (std::size_t j = 0; j < pass.session_events[k]; ++j, ++e) {
      SpanRecorder::Scope event_span(rec, "bench");
      double ms = 0.0;
      const EventOutcome got = session.event(rec, &ms);
      if (same && !(got == pass.events[e])) {
        // Later events of this session follow the diverged state.
        same = false;
        result.check(false, "traced line-protocol replay differs at event " +
                                std::to_string(e) + ": " + describe(got) +
                                " vs " + describe(pass.events[e]));
      }
    }
    replay_s += seconds_since(r0);
  }
  DirectCounts counts;
  const double direct_s = run_direct(config.seed, pass,
                                     pass.session_events.size(), quiet, rec,
                                     counts, result);
  result.finish_trace(rec, pass.wall_s, replay_s, since, replay_s + direct_s,
                      config.trace_path);
  result.set_gen(gen.stats, gen.calls, gen.tasks);
  const auto totals = rec.totals();
  const auto busy = [&](const char* layer) {
    const auto it = totals.find(layer);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.busy_ns) * 1e-9;
  };
  result.set("serve.self_s", busy("serve.feed") - busy("io.parse") -
                                 busy("admission.admit") -
                                 busy("admission.depart"));
  result.set("io.parse.bytes", static_cast<double>(counts.parse_bytes));
  const AdmissionStats& s = counts.stats;
  result.set("admission.oracle_calls", static_cast<double>(s.oracle_calls));
  result.set("admission.tasks_reused", static_cast<double>(s.tasks_reused));
  result.set("admission.reuse_ratio",
             static_cast<double>(s.tasks_reused) /
                 static_cast<double>(std::max<std::int64_t>(
                     1, s.tasks_reused + s.oracle_calls)));
  result.set("admission.delta_accepts", static_cast<double>(s.delta_accepts));
  result.set("admission.replace_accepts",
             static_cast<double>(s.replace_accepts));
  result.set("admission.repair_accepts",
             static_cast<double>(s.repair_accepts));
  result.set("admission.readmits", static_cast<double>(s.readmits));
  result.set("admission.evictions", static_cast<double>(s.retry_evictions));
  const char* rungs[] = {"delta", "replace", "repair", "none"};
  for (int r = 0; r < 4; ++r) {
    const std::string base = std::string("admission.rung.") + rungs[r];
    result.set(base + ".busy_s", static_cast<double>(counts.rung_ns[r]) * 1e-9);
    result.set(base + ".events", static_cast<double>(counts.rung_events[r]));
  }
  result.set("opt.repair.busy_s", static_cast<double>(counts.repair_ns) * 1e-9);
  result.set("opt.repair.events", static_cast<double>(counts.repair_events));
  result.set("opt.repair.calls", static_cast<double>(counts.repair_calls));
  return result;
}

}  // namespace perfbench
