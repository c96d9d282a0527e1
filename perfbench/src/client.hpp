// Client-side helpers of the admit workload: the
// comparable form of an admission decision, a parser for the line
// protocol's replies, and the snapshot/restore check.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "opt/admission.hpp"
#include "report.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// One admission decision as both the line protocol and a direct call
/// report it.
struct Decision {
  int id = -1;
  bool accepted = false;
  std::string rung = "-";
  std::int64_t cost = 0;
  bool queued = false;
  int evicted = -1;

  static Decision of(const dpcp::AdmitDecision& d);
  bool operator==(const Decision& o) const;
};

/// What one event (an arrival or a departure) produced.
struct EventOutcome {
  std::vector<Decision> decisions;  // the arrival's, or the readmissions
  int gone = -1;                    // departed id (-1 for arrivals)
  bool gone_resident = false;
  int errors = 0;  // `error` replies

  bool operator==(const EventOutcome& o) const {
    return decisions == o.decisions && gone == o.gone &&
           gone_resident == o.gone_resident && errors == o.errors;
  }
};

/// Parses the reply lines of one event (admit/evict/gone/ok/error).
EventOutcome parse_reply(const std::string& reply);

/// One-line rendering of an event's outcome, for check messages.
std::string describe(const EventOutcome& o);

/// A resident row of a `query` reply: (external id, certified WCRT).
using QueryRows = std::vector<std::pair<int, std::int64_t>>;
QueryRows parse_query(const std::string& reply);

/// Feeds a `restore` of `snapshot_text` into a fresh CommandSession and
/// checks that it is accepted and that its `query` matches `expected`.
void check_restore(const std::string& snapshot_text,
                   const dpcp::ServeOptions& options,
                   const QueryRows& expected, std::size_t retry,
                   RunResult& result);

/// Splits `text` into lines (without their newlines).
std::vector<std::string> split_lines(const std::string& text);

}  // namespace perfbench
