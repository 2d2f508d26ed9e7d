#include "serving/arrival.h"

#include <stdexcept>

#include "common/parse.h"

namespace p3q {
namespace {

/// Validate()'s message for a rate above kMaxArrivalRate.
std::string RateTooHigh() {
  return "arrival process: rate must be <= " +
         FormatStrictDouble(kMaxArrivalRate);
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t at = text.find(sep, start);
    if (at == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, at - start));
    start = at + 1;
  }
}

}  // namespace

std::string ArrivalSpec::Name() const {
  switch (kind) {
    case ArrivalKind::kNone:
      return "none";
    case ArrivalKind::kPoisson:
      return "poisson:" + FormatStrictDouble(rate);
    case ArrivalKind::kTrace: {
      std::string out = "trace:";
      for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i > 0) out += ",";
        out += FormatStrictDouble(trace[i]);
      }
      return out;
    }
  }
  return "unknown";
}

std::string ArrivalSpec::Validate() const {
  switch (kind) {
    case ArrivalKind::kNone:
      break;
    case ArrivalKind::kPoisson:
      // The negated forms also reject NaN (every comparison false).
      if (!(rate >= 0.0)) return "arrival process: rate must be >= 0";
      if (rate > kMaxArrivalRate) return RateTooHigh();
      break;
    case ArrivalKind::kTrace:
      if (trace.empty()) return "arrival process: trace has no rates";
      for (double r : trace) {
        if (!(r >= 0.0)) return "arrival process: trace rate must be >= 0";
        if (r > kMaxArrivalRate) return RateTooHigh();
      }
      break;
  }
  if (slo_cycles < 1) return "arrival process: slo_cycles must be >= 1";
  if (!(recall_target > 0.0 && recall_target <= 1.0)) {
    return "arrival process: recall_target outside (0, 1]";
  }
  return "";
}

std::string ParseArrivalSpec(const std::string& text, ArrivalSpec* spec) {
  const std::vector<std::string> parts = SplitOn(text, ':');
  ArrivalSpec parsed;
  const std::string usage = " (expected none | poisson:R | trace:A,B,C)";
  if (parts[0] == "none") {
    if (parts.size() != 1) {
      return "'none' arrivals take no parameters" + usage;
    }
  } else if (parts[0] == "poisson") {
    parsed.kind = ArrivalKind::kPoisson;
    if (parts.size() != 2 || !ParseStrictDouble(parts[1], &parsed.rate)) {
      return "cannot parse poisson arrivals '" + text + "'" + usage;
    }
  } else if (parts[0] == "trace") {
    parsed.kind = ArrivalKind::kTrace;
    if (parts.size() != 2) {
      return "cannot parse trace arrivals '" + text + "'" + usage;
    }
    for (const std::string& piece : SplitOn(parts[1], ',')) {
      double rate = 0;
      if (!ParseStrictDouble(piece, &rate)) {
        return "cannot parse trace rate '" + piece + "' in '" + text + "'" +
               usage;
      }
      parsed.trace.push_back(rate);
    }
  } else {
    return "unknown arrival process '" + text + "'" + usage;
  }
  if (const std::string problem = parsed.Validate(); !problem.empty()) {
    return problem;
  }
  *spec = parsed;
  return "";
}

ArrivalProcess::ArrivalProcess(const ArrivalSpec& spec, std::uint64_t seed)
    // Salted fork so the arrival stream is decorrelated from the system and
    // workload streams derived from the same master seed.
    : spec_(spec), rng_(seed * 0x9e3779b97f4a7c15ULL + 0x94d049bb133111ebULL) {
  if (const std::string problem = spec.Validate(); !problem.empty()) {
    throw std::invalid_argument(problem);
  }
}

int ArrivalProcess::ArrivalsAt(std::uint64_t cycle) {
  switch (spec_.kind) {
    case ArrivalKind::kNone:
      return 0;
    case ArrivalKind::kPoisson:
      return rng_.NextPoisson(spec_.rate);
    case ArrivalKind::kTrace:
      return rng_.NextPoisson(spec_.trace[cycle % spec_.trace.size()]);
  }
  return 0;
}

}  // namespace p3q
