// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark times calls into each layer's public functions from the
// outside: a span is opened around the call, closed when it returns, and
// parented to the span that was open when it started.  Spans stay in
// memory until the run ends; then they are summarized per layer (busy
// time, self time, count) and written as Chrome trace-event JSON, which
// Perfetto and chrome://tracing load.
//
// Self time is a span's duration minus the time its child spans cover.
// Spans of one thread nest strictly (a child closes before its parent),
// so the children's durations never overlap and the cover is their sum.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // layer name; must outlive the recorder
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  int parent = -1;           // index into spans(), -1 at the top level
};

struct LayerTotals {
  /// Time inside spans of this layer, counting a span only when no
  /// ancestor belongs to the same layer (so recursion is not doubled).
  std::int64_t busy_ns = 0;
  /// Time inside spans of this layer not covered by child spans.
  std::int64_t self_ns = 0;
  std::int64_t count = 0;
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// A disabled recorder records nothing; scopes cost one branch.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Nanoseconds since the recorder was created.
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// Opens a span at the current time under the innermost open span;
  /// returns its index (-1 when disabled).
  int open(const char* name);
  /// Closes span `id` (and must be the innermost open one).
  void close(int id);

  /// Appends an already-timed span; used to build synthetic traces.
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent);

  /// RAII span around one call.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name)
        : rec_(rec), id_(rec.open(name)) {}
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer busy/self/count totals over every closed span.
  std::map<std::string, LayerTotals> totals() const;

  /// Sum of self times of the spans opened at or after `from_ns`.
  std::int64_t self_ns_since(std::int64_t from_ns) const;

  /// Chrome trace-event JSON: the first `max_events` spans as complete
  /// ("X") events carrying their parent index, plus a "perLayer" object
  /// with the totals over all spans.
  std::string chrome_json(std::size_t max_events) const;

 private:
  /// Self time of every span, by index.
  std::vector<std::int64_t> self_times() const;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench
