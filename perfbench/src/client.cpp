#include "client.hpp"

#include <sstream>

namespace perfbench {

Decision Decision::of(const dpcp::AdmitDecision& d) {
  Decision out;
  out.id = d.id;
  out.accepted = d.accepted;
  out.rung = dpcp::admit_rung_token(d.rung);
  out.cost = d.cost;
  out.queued = d.queued;
  out.evicted = d.evicted_id;
  return out;
}

bool Decision::operator==(const Decision& o) const {
  return id == o.id && accepted == o.accepted && rung == o.rung &&
         cost == o.cost && queued == o.queued && evicted == o.evicted;
}

namespace {

/// Value of `key=` among `tokens`, or "" when absent.
std::string field(const std::vector<std::string>& tokens,
                  const std::string& key) {
  for (const std::string& t : tokens)
    if (t.size() > key.size() && t.compare(0, key.size(), key) == 0 &&
        t[key.size()] == '=')
      return t.substr(key.size() + 1);
  return "";
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  for (std::string t; in >> t;) out.push_back(t);
  return out;
}

}  // namespace

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

EventOutcome parse_reply(const std::string& reply) {
  EventOutcome out;
  for (const std::string& line : split_lines(reply)) {
    const std::vector<std::string> t = tokens_of(line);
    if (t.empty()) continue;
    if (t[0] == "admit" && t.size() >= 2) {
      Decision d;
      d.id = std::stoi(field(t, "id"));
      d.accepted = t.size() > 2 && t[2] == "accepted";
      d.rung = field(t, "rung");
      d.cost = std::stoll(field(t, "calls"));
      d.queued = field(t, "queued") == "1";
      out.decisions.push_back(d);
    } else if (t[0] == "evict" && !out.decisions.empty()) {
      out.decisions.back().evicted = std::stoi(field(t, "id"));
    } else if (t[0] == "gone") {
      out.gone = std::stoi(field(t, "id"));
      out.gone_resident = t.size() > 2 && t[2] == "resident";
    } else if (t[0] == "error") {
      ++out.errors;
    }
  }
  return out;
}

std::string describe(const EventOutcome& o) {
  std::string s = "gone=" + std::to_string(o.gone) +
                  (o.gone_resident ? " resident" : "") +
                  " errors=" + std::to_string(o.errors);
  for (const Decision& d : o.decisions)
    s += " [id=" + std::to_string(d.id) + (d.accepted ? " ok" : " no") +
         " rung=" + d.rung + " calls=" + std::to_string(d.cost) +
         " queued=" + std::to_string(d.queued) +
         " evicted=" + std::to_string(d.evicted) + "]";
  return s;
}

QueryRows parse_query(const std::string& reply) {
  QueryRows rows;
  for (const std::string& line : split_lines(reply)) {
    const std::vector<std::string> t = tokens_of(line);
    if (t.empty() || t[0] != "task") continue;
    rows.emplace_back(std::stoi(field(t, "id")), std::stoll(field(t, "wcrt")));
  }
  return rows;
}

void check_restore(const std::string& snapshot_text,
                   const dpcp::ServeOptions& options,
                   const QueryRows& expected, std::size_t retry,
                   RunResult& result) {
  std::ostringstream out;
  dpcp::CommandSession fresh(out, options);
  fresh.feed("restore");
  for (const std::string& line : split_lines(snapshot_text)) fresh.feed(line);
  fresh.feed(".");
  const std::string restored = out.str();
  const std::string want = "ok restore resident=" +
                           std::to_string(expected.size()) +
                           " retry=" + std::to_string(retry) + "\n";
  result.check(restored == want,
               "restore in a fresh session replied '" + restored +
                   "', expected '" + want + "'");
  out.str("");
  fresh.feed("query");
  const QueryRows got = parse_query(out.str());
  std::string diff = "rows " + std::to_string(got.size()) + " vs " +
                     std::to_string(expected.size());
  for (std::size_t i = 0; i < got.size() && i < expected.size(); ++i)
    if (got[i] != expected[i]) {
      diff = "first at row " + std::to_string(i) + ": id " +
             std::to_string(got[i].first) + " wcrt " +
             std::to_string(got[i].second) + " restored vs id " +
             std::to_string(expected[i].first) + " wcrt " +
             std::to_string(expected[i].second) + " live";
      break;
    }
  result.check(got == expected,
               "restored session's query differs from the original (" + diff +
                   ")");
  result.check(!fresh.saw_error(), "restored session replied with an error");
}

}  // namespace perfbench
