#include "scenario/report.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace p3q {
namespace {

/// Fixed-precision double rendering (no locale, no exponent) so reports are
/// byte-stable across platforms.
std::string Num(double v, int precision = 6) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendTrafficJson(const Metrics& traffic, const std::string& indent,
                       std::ostringstream* out) {
  *out << "{\n"
       << indent << "  \"total\": {\"messages\": " << traffic.TotalMessages()
       << ", \"bytes\": " << traffic.TotalBytes() << "},\n"
       << indent << "  \"by_type\": {\n";
  for (int i = 0; i < static_cast<int>(MessageType::kCount); ++i) {
    const auto type = static_cast<MessageType>(i);
    const MessageStats& s = traffic.Of(type);
    *out << indent << "    \"" << MessageTypeName(type)
         << "\": {\"messages\": " << s.messages << ", \"bytes\": " << s.bytes
         << "}";
    if (i + 1 < static_cast<int>(MessageType::kCount)) *out << ",";
    *out << "\n";
  }
  *out << indent << "  }\n" << indent << "}";
}

void AppendTimingJson(const PhaseTiming& timing, bool open_loop,
                      std::ostringstream* out) {
  *out << "{\"threads\": " << timing.threads
       << ", \"wall_seconds\": " << Num(timing.wall_seconds)
       << ", \"cycles_per_sec\": " << Num(timing.cycles_per_sec, 1)
       << ", \"user_cycles_per_sec\": " << Num(timing.user_cycles_per_sec, 1);
  if (open_loop) {
    *out << ", \"queries_per_sec\": " << Num(timing.queries_per_sec, 1)
         << ", \"slo_queries_per_sec\": " << Num(timing.slo_queries_per_sec, 1);
  }
  *out << "}";
}

/// End-of-run memory footprint. Rides the timing opt-in gate (peak RSS is
/// process-wide and non-deterministic) and appears only in the totals.
void AppendMemoryJson(const MemoryReport& m, std::ostringstream* out) {
  *out << "{\"arena_reserved_bytes\": " << m.arena_reserved_bytes
       << ", \"arena_used_bytes\": " << m.arena_used_bytes
       << ", \"arena_slabs\": " << m.arena_slabs
       << ", \"arena_live_blocks\": " << m.arena_live_blocks
       << ", \"arena_recycled_slabs\": " << m.arena_recycled_slabs
       << ", \"pool_hits\": " << m.pool_hits
       << ", \"pool_misses\": " << m.pool_misses
       << ", \"probe_memo_bytes\": " << m.probe_memo_bytes
       << ", \"personal_network_bytes\": " << m.personal_network_bytes
       << ", \"random_view_bytes\": " << m.random_view_bytes
       << ", \"peak_in_flight_messages\": " << m.peak_in_flight_messages
       << ", \"peak_rss_mb\": " << Num(m.peak_rss_mb, 1)
       << ", \"heap_held_bytes\": " << m.heap_held_bytes
       << ", \"heap_in_use_bytes\": " << m.heap_in_use_bytes << "}";
}

/// Renders one latency percentile. A clamped histogram (observations past
/// the last bucket) adds a `<key>_lower_bound` flag: the true percentile is
/// >= the reported value, not equal to it. The flag never appears for
/// unclamped histograms, so existing reports serialize unchanged.
void AppendPercentileJson(const char* key, const PercentileValue& p,
                          std::ostringstream* out) {
  *out << "\"" << key << "\": " << Num(p.value, 2);
  if (p.lower_bound) *out << ", \"" << key << "_lower_bound\": true";
}

/// Open-loop serving stats of one phase (or the run totals, with the extra
/// abandoned count and the completion histogram trimmed to its last
/// non-empty bucket).
void AppendQueryLatencyJson(const QueryLatencyStats& q,
                            const std::string& arrivals_name,
                            std::size_t open_at_end, bool totals,
                            std::ostringstream* out) {
  *out << "{";
  if (!totals) {
    *out << "\"arrivals\": \""
         << JsonEscape(arrivals_name.empty() ? "none" : arrivals_name)
         << "\", ";
  }
  *out << "\"issued\": " << q.issued << ", \"completed\": " << q.completed
       << ", \"completed_within_slo\": " << q.completed_within_slo
       << ", \"first_results\": " << q.first_results;
  if (totals) {
    *out << ", \"abandoned\": " << q.abandoned;
  } else {
    *out << ", \"open_at_end\": " << open_at_end;
  }
  *out << ", ";
  AppendPercentileJson("p50", q.CompletionPercentile(0.50), out);
  *out << ", ";
  AppendPercentileJson("p95", q.CompletionPercentile(0.95), out);
  *out << ", ";
  AppendPercentileJson("p99", q.CompletionPercentile(0.99), out);
  *out << ", ";
  AppendPercentileJson("first_result_p50", q.FirstResultPercentile(0.50), out);
  if (totals) {
    std::size_t last = 0;
    for (std::size_t i = 0; i < kQueryLatencyBuckets; ++i) {
      if (q.completion_histogram[i] != 0) last = i;
    }
    *out << ", \"completion_histogram\": [";
    for (std::size_t i = 0; i <= last; ++i) {
      *out << (i > 0 ? ", " : "") << q.completion_histogram[i];
    }
    *out << "]";
  }
  *out << "}";
}

/// Delivery counters of one phase (or the totals, with the extra
/// whole-run fields: stale drops, the in-flight peak and the lag
/// histogram trimmed to its last non-empty bucket).
void AppendDeliveryJson(const DeliveryStats& delivery,
                        std::size_t in_flight_at_end, bool totals,
                        std::ostringstream* out) {
  *out << "{\"enqueued\": " << delivery.enqueued
       << ", \"delivered\": " << delivery.delivered
       << ", \"dropped\": " << delivery.dropped
       << ", \"in_flight_at_end\": " << in_flight_at_end << ", ";
  AppendPercentileJson("lag_p50", delivery.LagPercentileBound(0.50), out);
  *out << ", ";
  AppendPercentileJson("lag_p95", delivery.LagPercentileBound(0.95), out);
  if (totals) {
    *out << ", \"stale_dropped\": " << delivery.stale_dropped
         << ", \"max_in_flight\": " << delivery.max_in_flight;
    std::size_t last = 0;
    for (std::size_t i = 0; i < kDeliveryLagBuckets; ++i) {
      if (delivery.lag_histogram[i] != 0) last = i;
    }
    *out << ", \"lag_histogram\": [";
    for (std::size_t i = 0; i <= last; ++i) {
      *out << (i > 0 ? ", " : "") << delivery.lag_histogram[i];
    }
    *out << "]";
  }
  *out << "}";
}

/// Per-kind accepted-event counts of a traced run (phase delta or totals).
void AppendTraceEventsJson(const Tracer::KindCounts& counts,
                           std::ostringstream* out) {
  *out << "{";
  for (int i = 0; i < kNumTraceEventKinds; ++i) {
    if (i > 0) *out << ", ";
    *out << "\"" << TraceEventKindName(static_cast<TraceEventKind>(i))
         << "\": " << counts[i];
  }
  *out << "}";
}

/// Wall-clock phase breakdown per engine label ("lazy"/"eager"). Wall-clock
/// fields are inherently non-deterministic, which is why this block rides
/// the same opt-in gate as the timing block.
void AppendProfileJson(const std::map<std::string, PhaseBreakdown>& profile,
                       std::ostringstream* out) {
  *out << "{";
  bool first = true;
  for (const auto& [label, b] : profile) {
    if (!first) *out << ", ";
    first = false;
    *out << "\"" << JsonEscape(label) << "\": " << PhaseBreakdownToJson(b);
  }
  *out << "}";
}

/// Engine-label-aggregated profile figures for the flat CSV columns: phase
/// seconds sum across engines; the imbalance column takes the worst engine's
/// mean plan imbalance.
struct ProfileRollup {
  double plan = 0;
  double barrier = 0;
  double drain = 0;
  double end_cycle = 0;
  double imbalance = 0;
};

ProfileRollup RollupProfile(
    const std::map<std::string, PhaseBreakdown>& profile) {
  ProfileRollup r;
  for (const auto& [label, b] : profile) {
    (void)label;
    r.plan += b.plan_seconds;
    r.barrier += b.barrier_seconds;
    r.drain += b.drain_seconds;
    r.end_cycle += b.end_cycle_seconds;
    const double mean = b.MeanImbalance();
    if (mean > r.imbalance) r.imbalance = mean;
  }
  return r;
}

}  // namespace

std::string ScenarioReportToJson(const ScenarioReport& report,
                                 bool include_timing) {
  // The delivery block appears only under a non-zero latency model, so
  // ZeroLatency reports stay byte-identical to the synchronous engine's.
  const bool include_delivery = !report.latency.IsZero();
  // Trace/profile blocks require BOTH the opt-in timing gate and an actually
  // observed run, so a traced run's default report stays byte-identical to
  // an untraced one (tracing is observation-only).
  const bool include_trace = include_timing && report.traced;
  const bool include_profile = include_timing && report.profiled;
  std::ostringstream out;
  out << "{\n"
      << "  \"scenario\": \"" << JsonEscape(report.scenario) << "\",\n"
      << "  \"description\": \"" << JsonEscape(report.description) << "\",\n"
      << "  \"seed\": " << report.seed << ",\n"
      << "  \"users\": " << report.users << ",\n"
      << "  \"config\": {\"network_size\": " << report.network_size
      << ", \"stored_profiles\": " << report.stored_profiles
      << ", \"top_k\": " << report.top_k << ", \"alpha\": " << Num(report.alpha)
      << "},\n";
  if (include_delivery) {
    out << "  \"latency\": \"" << JsonEscape(report.latency.Name())
        << "\",\n";
  }
  if (report.open_loop) {
    out << "  \"slo_cycles\": " << report.slo_cycles << ",\n";
  }
  out << "  \"phases\": [\n";
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    const PhaseReport& p = report.phases[i];
    out << "    {\n"
        << "      \"name\": \"" << JsonEscape(p.name) << "\",\n"
        << "      \"mode\": \"" << p.mode << "\",\n"
        << "      \"cycles\": " << p.cycles << ",\n"
        << "      \"online_at_end\": " << p.online_at_end << ",\n"
        << "      \"departures\": " << p.departures << ",\n"
        << "      \"rejoins\": " << p.rejoins << ",\n"
        << "      \"queries\": {\"issued\": " << p.queries_issued
        << ", \"completed\": " << p.queries_completed
        << ", \"avg_recall\": " << Num(p.avg_recall)
        << ", \"avg_coverage\": " << Num(p.avg_coverage) << "},\n"
        << "      \"success_ratio\": " << Num(p.success_ratio) << ",\n"
        << "      \"traffic\": ";
    AppendTrafficJson(p.traffic, "      ", &out);
    if (include_delivery) {
      out << ",\n      \"delivery\": ";
      AppendDeliveryJson(p.delivery, p.in_flight_at_end, /*totals=*/false,
                         &out);
    }
    if (report.open_loop) {
      out << ",\n      \"query_latency\": ";
      AppendQueryLatencyJson(p.query_latency, p.arrivals, p.open_queries_at_end,
                             /*totals=*/false, &out);
    }
    if (include_timing) {
      out << ",\n      \"timing\": ";
      AppendTimingJson(p.timing, report.open_loop, &out);
    }
    if (include_trace) {
      out << ",\n      \"trace_events\": ";
      AppendTraceEventsJson(p.trace_events, &out);
    }
    if (include_profile) {
      out << ",\n      \"profile\": ";
      AppendProfileJson(p.profile, &out);
    }
    out << "\n    }" << (i + 1 < report.phases.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"totals\": {\n"
      << "    \"cycles\": " << report.total_cycles << ",\n"
      << "    \"departures\": " << report.total_departures << ",\n"
      << "    \"rejoins\": " << report.total_rejoins << ",\n"
      << "    \"queries\": {\"issued\": " << report.total_queries_issued
      << ", \"completed\": " << report.total_queries_completed << "},\n"
      << "    \"traffic\": ";
  AppendTrafficJson(report.total_traffic, "    ", &out);
  if (include_delivery) {
    const std::size_t in_flight_at_end =
        report.phases.empty() ? 0 : report.phases.back().in_flight_at_end;
    out << ",\n    \"delivery\": ";
    AppendDeliveryJson(report.total_delivery, in_flight_at_end,
                       /*totals=*/true, &out);
  }
  if (report.open_loop) {
    out << ",\n    \"query_latency\": ";
    AppendQueryLatencyJson(report.total_query_latency, "", 0, /*totals=*/true,
                           &out);
  }
  if (include_timing) {
    out << ",\n    \"timing\": ";
    AppendTimingJson(report.total_timing, report.open_loop, &out);
    out << ",\n    \"memory\": ";
    AppendMemoryJson(report.memory, &out);
  }
  if (include_trace) {
    out << ",\n    \"trace_events\": ";
    AppendTraceEventsJson(report.total_trace_events, &out);
  }
  if (include_profile) {
    out << ",\n    \"profile\": ";
    AppendProfileJson(report.total_profile, &out);
  }
  out << "\n  }\n}\n";
  return out.str();
}

std::string ScenarioReportToCsv(const ScenarioReport& report,
                                bool include_timing) {
  // Delivery columns appear only under a non-zero latency model (the same
  // gating as the JSON emitter) so ZeroLatency CSV stays byte-identical.
  const bool include_delivery = !report.latency.IsZero();
  // Same double gate as the JSON emitter: trace/profile columns need both
  // the timing opt-in and an observed run.
  const bool include_trace = include_timing && report.traced;
  const bool include_profile = include_timing && report.profiled;
  std::ostringstream out;
  out << "scenario,phase,mode,cycles,online_at_end,departures,rejoins,"
         "queries_issued,queries_completed,avg_recall,avg_coverage,"
         "success_ratio,total_messages,total_bytes";
  for (int i = 0; i < static_cast<int>(MessageType::kCount); ++i) {
    const char* name = MessageTypeName(static_cast<MessageType>(i));
    out << "," << name << "_messages," << name << "_bytes";
  }
  if (include_delivery) {
    out << ",latency_model,delivery_enqueued,delivery_delivered,"
           "delivery_dropped,delivery_stale_dropped,in_flight_at_end,"
           "lag_p50,lag_p95";
  }
  if (report.open_loop) {
    out << ",arrivals,ql_issued,ql_completed,ql_within_slo,ql_first_results,"
           "ql_abandoned,ql_open_at_end,ql_p50,ql_p95,ql_p99,"
           "ql_p99_lower_bound,ql_first_result_p50";
  }
  if (include_timing) {
    out << ",threads,wall_seconds,cycles_per_sec,user_cycles_per_sec";
    if (report.open_loop) out << ",queries_per_sec,slo_queries_per_sec";
  }
  if (include_trace) {
    for (int i = 0; i < kNumTraceEventKinds; ++i) {
      out << ",ev_" << TraceEventKindName(static_cast<TraceEventKind>(i));
    }
  }
  if (include_profile) {
    out << ",prof_plan_s,prof_barrier_s,prof_drain_s,prof_end_s,"
           "prof_shard_imbalance";
  }
  out << "\n";

  auto row = [&](const std::string& phase_name, const std::string& mode,
                 std::uint64_t cycles, std::size_t online_at_end,
                 std::size_t departures, std::size_t rejoins, int issued,
                 int completed, double recall, double coverage, double success,
                 const Metrics& traffic, const DeliveryStats& delivery,
                 std::size_t in_flight_at_end, const std::string& arrivals,
                 const QueryLatencyStats& query_latency,
                 std::size_t open_queries_at_end, const PhaseTiming& timing,
                 const Tracer::KindCounts& trace_events,
                 const std::map<std::string, PhaseBreakdown>& profile) {
    out << report.scenario << "," << phase_name << "," << mode << "," << cycles
        << "," << online_at_end << "," << departures << "," << rejoins << ","
        << issued << "," << completed << "," << Num(recall) << ","
        << Num(coverage) << "," << Num(success) << ","
        << traffic.TotalMessages() << "," << traffic.TotalBytes();
    for (int i = 0; i < static_cast<int>(MessageType::kCount); ++i) {
      const MessageStats& s = traffic.Of(static_cast<MessageType>(i));
      out << "," << s.messages << "," << s.bytes;
    }
    if (include_delivery) {
      out << "," << report.latency.Name() << "," << delivery.enqueued << ","
          << delivery.delivered << "," << delivery.dropped << ","
          << delivery.stale_dropped << "," << in_flight_at_end << ","
          << Num(delivery.LagPercentile(0.50), 2) << ","
          << Num(delivery.LagPercentile(0.95), 2);
    }
    if (report.open_loop) {
      const PercentileValue p99 = query_latency.CompletionPercentile(0.99);
      out << "," << (arrivals.empty() ? "none" : arrivals) << ","
          << query_latency.issued << "," << query_latency.completed << ","
          << query_latency.completed_within_slo << ","
          << query_latency.first_results << "," << query_latency.abandoned
          << "," << open_queries_at_end << ","
          << Num(query_latency.CompletionPercentile(0.50).value, 2) << ","
          << Num(query_latency.CompletionPercentile(0.95).value, 2) << ","
          << Num(p99.value, 2) << "," << (p99.lower_bound ? 1 : 0) << ","
          << Num(query_latency.FirstResultPercentile(0.50).value, 2);
    }
    if (include_timing) {
      out << "," << timing.threads << "," << Num(timing.wall_seconds) << ","
          << Num(timing.cycles_per_sec, 1) << ","
          << Num(timing.user_cycles_per_sec, 1);
      if (report.open_loop) {
        out << "," << Num(timing.queries_per_sec, 1) << ","
            << Num(timing.slo_queries_per_sec, 1);
      }
    }
    if (include_trace) {
      for (int i = 0; i < kNumTraceEventKinds; ++i) {
        out << "," << trace_events[i];
      }
    }
    if (include_profile) {
      const ProfileRollup r = RollupProfile(profile);
      out << "," << Num(r.plan) << "," << Num(r.barrier) << ","
          << Num(r.drain) << "," << Num(r.end_cycle) << ","
          << Num(r.imbalance, 3);
    }
    out << "\n";
  };

  for (const PhaseReport& p : report.phases) {
    row(p.name, p.mode, p.cycles, p.online_at_end, p.departures, p.rejoins,
        p.queries_issued, p.queries_completed, p.avg_recall, p.avg_coverage,
        p.success_ratio, p.traffic, p.delivery, p.in_flight_at_end, p.arrivals,
        p.query_latency, p.open_queries_at_end, p.timing, p.trace_events,
        p.profile);
  }
  const PhaseReport* last = report.phases.empty() ? nullptr : &report.phases.back();
  row("total", "-", report.total_cycles,
      last != nullptr ? last->online_at_end : 0, report.total_departures,
      report.total_rejoins, report.total_queries_issued,
      report.total_queries_completed,
      last != nullptr ? last->avg_recall : -1,
      last != nullptr ? last->avg_coverage : 0,
      last != nullptr ? last->success_ratio : 0, report.total_traffic,
      report.total_delivery,
      last != nullptr ? last->in_flight_at_end : 0, "-",
      report.total_query_latency, 0, report.total_timing,
      report.total_trace_events, report.total_profile);
  return out.str();
}

namespace {

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

bool WriteScenarioReportJson(const ScenarioReport& report,
                             const std::string& path, bool include_timing) {
  return WriteTextFile(path, ScenarioReportToJson(report, include_timing));
}

bool WriteScenarioReportCsv(const ScenarioReport& report,
                            const std::string& path, bool include_timing) {
  return WriteTextFile(path, ScenarioReportToCsv(report, include_timing));
}

}  // namespace p3q
