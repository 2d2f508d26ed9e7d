// Structured serialization of scenario reports.
//
// A ScenarioReport renders to JSON (one object, phases as an array, traffic
// split per MessageType) and to CSV (one row per phase plus a totals row).
// Both emitters format floating-point fields with a fixed precision and are
// byte-deterministic in the report's contents; the wall-clock timing block —
// the only non-deterministic part of a run — is excluded unless
// `include_timing` is set, so that two runs with the same seed serialize
// identically by default. Runs under a non-zero latency model additionally
// carry a (deterministic) delivery block — enqueued/delivered/dropped
// counts, in-flight depth and delivery-lag percentiles, plus the lag
// histogram in the totals; under the default zero latency the block is
// omitted entirely so output stays byte-identical to the synchronous
// engine's. Open-loop runs (any phase with an arrival process) likewise
// carry a query_latency block per phase and in the totals — issue counts,
// completion/first-result latency percentiles (flagged lower bounds when
// the histogram clamped) and SLO goodput — omitted for closed-loop runs so
// their output is unchanged. Traced/profiled runs add a trace_events rollup
// (accepted events by kind) and a per-engine wall-clock phase breakdown —
// both gated on `include_timing` AND the run actually being observed, so a
// traced run's default report is byte-identical to an untraced one.
#ifndef P3Q_SCENARIO_REPORT_H_
#define P3Q_SCENARIO_REPORT_H_

#include <string>

#include "scenario/runner.h"

namespace p3q {

/// Renders the report as a JSON document (trailing newline included).
std::string ScenarioReportToJson(const ScenarioReport& report,
                                 bool include_timing = false);

/// Renders the report as CSV: a header row, one row per phase and a final
/// `total` row (trailing newline included).
std::string ScenarioReportToCsv(const ScenarioReport& report,
                                bool include_timing = false);

/// Writes the JSON rendering to `path`; returns false on I/O failure.
bool WriteScenarioReportJson(const ScenarioReport& report,
                             const std::string& path,
                             bool include_timing = false);

/// Writes the CSV rendering to `path`; returns false on I/O failure.
bool WriteScenarioReportCsv(const ScenarioReport& report,
                            const std::string& path,
                            bool include_timing = false);

}  // namespace p3q

#endif  // P3Q_SCENARIO_REPORT_H_
