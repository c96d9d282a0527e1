#include "spans.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

int SpanRecorder::open(const char* name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now_ns(), -1, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("span closed out of order");
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

int SpanRecorder::add(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, int parent) {
  spans_.push_back(Span{name, start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::int64_t> SpanRecorder::self_times() const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const std::int64_t dur = s.end_ns - s.start_ns;
    self[i] += dur;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= dur;
  }
  return self;
}

std::map<std::string, LayerTotals> SpanRecorder::totals() const {
  const std::vector<std::int64_t> self = self_times();
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    LayerTotals& t = out[s.name];
    ++t.count;
    t.self_ns += self[i];
    bool nested_in_same_layer = false;
    for (int p = s.parent; p >= 0 && !nested_in_same_layer;
         p = spans_[static_cast<std::size_t>(p)].parent)
      nested_in_same_layer =
          std::strcmp(spans_[static_cast<std::size_t>(p)].name, s.name) == 0;
    if (!nested_in_same_layer) t.busy_ns += s.end_ns - s.start_ns;
  }
  return out;
}

std::int64_t SpanRecorder::self_ns_since(std::int64_t from_ns) const {
  const std::vector<std::int64_t> self = self_times();
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].end_ns >= 0 && spans_[i].start_ns >= from_ns)
      sum += self[i];
  return sum;
}

namespace {

/// Nanoseconds as a microsecond decimal, in integer arithmetic.
std::string micros(std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  return buf;
}

}  // namespace

std::string SpanRecorder::chrome_json(std::size_t max_events) const {
  std::string out = "{\"traceEvents\":[";
  const std::size_t n = std::min(max_events, spans_.size());
  bool first = true;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += s.name;
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" + micros(s.start_ns) +
           ",\"dur\":" + micros(s.end_ns - s.start_ns) +
           ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) + "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"spansRecorded\":" +
         std::to_string(spans_.size()) + ",\"spansWritten\":" +
         std::to_string(n) + ",\"perLayer\":{";
  first = true;
  for (const auto& [name, t] : totals()) {
    if (!first) out += ",";
    first = false;
    out += "\n\"" + name + "\":{\"busy_us\":" + micros(t.busy_ns) +
           ",\"self_us\":" + micros(t.self_ns) +
           ",\"count\":" + std::to_string(t.count) + "}";
  }
  out += "}}\n";
  return out;
}

}  // namespace perfbench
