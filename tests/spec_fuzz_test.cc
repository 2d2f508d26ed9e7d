// Seeded, bounded mutation fuzzing of the spec strings: --latency
// (ParseLatencySpec), arrival specs (ParseArrivalSpec, the form
// ArrivalSpec::Name() prints into reports) and --trace-filter
// (ParseTraceKindMask).
//
// Each case mangles a valid spec with 1-3 seeded edits: byte edits,
// truncation, duplicated or emptied fields, extra ':' / ',' separators and
// extreme numbers (1e308, -0, 30-digit integers, ...). Every input must
// either fail with a non-empty message, leaving the output untouched, or
// parse to a spec that validates and whose name parses back to the same
// spec. An accepted spec must then behave: 64 cycles of arrivals stay in
// [0, twice kMaxArrivalRate], and 64 of a latency spec's delays stay within
// its bounds. Both outcomes must occur for every parser, so the cases
// reach past the first check.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "obs/trace.h"
#include "serving/arrival.h"
#include "sim/delivery.h"

namespace p3q {
namespace {

constexpr int kCasesPerParser = 20000;

const std::vector<std::string> kExtremes = {
    "1e308",   "-0",         "123456789012345678901234567890",
    "-1",      "0",          "1e-320",
    "4294967296",            "18446744073709551615",
    "1000000", "1000000.5",  "1e9",
    "0.1234567891234",       "nan",
    "inf",     "0x10",       "1e",
    " 1",      "+1"};

/// Splits on both separators, keeping them, so fields can be edited.
std::vector<std::string> Tokens(const std::string& text) {
  std::vector<std::string> out(1);
  for (char c : text) {
    if (c == ':' || c == ',') {
      out.push_back(std::string(1, c));
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) out += t;
  return out;
}

/// Indices of the field (non-separator) tokens.
std::vector<std::size_t> Fields(const std::vector<std::string>& tokens) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] != ":" && tokens[i] != ",") out.push_back(i);
  }
  return out;
}

/// Applies one seeded edit to `text`.
std::string Mutate(const std::string& text, Rng* rng) {
  static const std::string kAlphabet = "0123456789:,.-+eE xnaz";
  std::string s = text;
  const auto pos = [&](std::size_t size) {
    return static_cast<std::size_t>(rng->NextUint64(size + 1));
  };
  switch (rng->NextUint64(8)) {
    case 0:  // overwrite a byte
      if (!s.empty()) {
        s[pos(s.size() - 1)] =
            rng->NextBool(0.8)
                ? kAlphabet[rng->NextUint64(kAlphabet.size())]
                : static_cast<char>(rng->NextUint64(256));
      }
      return s;
    case 1:  // insert a byte
      s.insert(pos(s.size()), 1, kAlphabet[rng->NextUint64(kAlphabet.size())]);
      return s;
    case 2:  // delete a byte
      if (!s.empty()) s.erase(pos(s.size() - 1), 1);
      return s;
    case 3:  // truncate
      return s.substr(0, pos(s.size()));
    case 4: {  // duplicate a field with its separator
      std::vector<std::string> tokens = Tokens(s);
      const std::vector<std::size_t> fields = Fields(tokens);
      const std::size_t f = fields[rng->NextUint64(fields.size())];
      const std::string sep = rng->NextBool(0.5) ? ":" : ",";
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(f) + 1,
                    {sep, tokens[f]});
      return Join(tokens);
    }
    case 5: {  // replace a field with an extreme number
      std::vector<std::string> tokens = Tokens(s);
      const std::vector<std::size_t> fields = Fields(tokens);
      tokens[fields[rng->NextUint64(fields.size())]] =
          kExtremes[rng->NextUint64(kExtremes.size())];
      return Join(tokens);
    }
    case 6: {  // empty a field
      std::vector<std::string> tokens = Tokens(s);
      const std::vector<std::size_t> fields = Fields(tokens);
      tokens[fields[rng->NextUint64(fields.size())]].clear();
      return Join(tokens);
    }
    default:  // an extra separator, often at an end
      s.insert(rng->NextBool(0.5) ? (rng->NextBool(0.5) ? 0 : s.size())
                                  : pos(s.size()),
               1, rng->NextBool(0.5) ? ':' : ',');
      return s;
  }
}

/// A case's input: one valid seed spec with 1-3 edits.
std::string MangledCase(const std::vector<std::string>& seeds,
                        std::uint64_t salt, int c) {
  Rng rng(salt + static_cast<std::uint64_t>(c));
  std::string text = seeds[rng.NextUint64(seeds.size())];
  const int edits = 1 + static_cast<int>(rng.NextUint64(3));
  for (int e = 0; e < edits; ++e) text = Mutate(text, &rng);
  return text;
}

bool SameLatency(const LatencySpec& a, const LatencySpec& b) {
  return a.kind == b.kind && a.fixed == b.fixed && a.lo == b.lo &&
         a.hi == b.hi && a.loss == b.loss && a.max_delay == b.max_delay;
}

bool SameArrivals(const ArrivalSpec& a, const ArrivalSpec& b) {
  return a.kind == b.kind && a.rate == b.rate && a.trace == b.trace &&
         a.slo_cycles == b.slo_cycles && a.recall_target == b.recall_target;
}

/// The kinds of a mask as a --trace-filter list.
std::string MaskName(std::uint32_t mask) {
  std::string out;
  for (int i = 0; i < kNumTraceEventKinds; ++i) {
    if ((mask & (1u << i)) == 0) continue;
    if (!out.empty()) out += ",";
    out += TraceEventKindName(static_cast<TraceEventKind>(i));
  }
  return out;
}

TEST(SpecFuzzTest, LatencySpecsFailCleanlyOrRoundTripAndStayInBounds) {
  const std::vector<std::string> seeds = {
      "zero", "fixed:2", "uniform:1:3", "lossy:0.1:4", "lossy:0.05:0",
      "uniform:0:0"};
  int accepted = 0;
  int rejected = 0;
  for (int c = 0; c < kCasesPerParser; ++c) {
    const std::string text = MangledCase(seeds, 0x6c6174656e6379ULL, c);
    SCOPED_TRACE("case " + std::to_string(c) + ": '" + text + "'");
    LatencySpec spec;
    spec.kind = LatencyKind::kFixed;
    spec.fixed = 77;  // a sentinel a failed parse must leave alone
    const LatencySpec before = spec;
    const std::string error = ParseLatencySpec(text, &spec);
    if (!error.empty()) {
      ++rejected;
      EXPECT_TRUE(SameLatency(spec, before)) << error;
      continue;
    }
    ++accepted;
    ASSERT_EQ(spec.Validate(), "");
    LatencySpec again;
    ASSERT_EQ(ParseLatencySpec(spec.Name(), &again), "") << spec.Name();
    EXPECT_TRUE(SameLatency(again, spec)) << spec.Name();
    Rng rng(static_cast<std::uint64_t>(c));
    for (int draw = 0; draw < 64; ++draw) {
      const std::optional<std::uint64_t> delay = spec.Delay(&rng);
      switch (spec.kind) {
        case LatencyKind::kZero:
          EXPECT_EQ(delay, std::optional<std::uint64_t>(0));
          break;
        case LatencyKind::kFixed:
          EXPECT_EQ(delay, std::optional<std::uint64_t>(spec.fixed));
          break;
        case LatencyKind::kUniform:
          ASSERT_TRUE(delay.has_value());
          EXPECT_GE(*delay, spec.lo);
          EXPECT_LE(*delay, spec.hi);
          break;
        case LatencyKind::kLossy:
          if (delay.has_value()) {
            EXPECT_LE(*delay, spec.max_delay);
          }
          break;
      }
      if (delay.has_value()) {
        EXPECT_LE(*delay, kMaxLatencyCycles);
      }
    }
  }
  RecordProperty("accepted", accepted);
  RecordProperty("rejected", rejected);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SpecFuzzTest, ArrivalSpecsFailCleanlyOrRoundTripAndDrawInRange) {
  const std::vector<std::string> seeds = {
      "none", "poisson:2", "poisson:0.5", "trace:1,4,2", "trace:0.5,3",
      "trace:0", "poisson:70"};
  int accepted = 0;
  int rejected = 0;
  for (int c = 0; c < kCasesPerParser; ++c) {
    const std::string text = MangledCase(seeds, 0x6172726976616cULL, c);
    SCOPED_TRACE("case " + std::to_string(c) + ": '" + text + "'");
    ArrivalSpec spec;
    spec.kind = ArrivalKind::kPoisson;
    spec.rate = 77;  // a sentinel a failed parse must leave alone
    const ArrivalSpec before = spec;
    const std::string error = ParseArrivalSpec(text, &spec);
    if (!error.empty()) {
      ++rejected;
      EXPECT_TRUE(SameArrivals(spec, before)) << error;
      continue;
    }
    ++accepted;
    ASSERT_EQ(spec.Validate(), "");
    ArrivalSpec again;
    ASSERT_EQ(ParseArrivalSpec(spec.Name(), &again), "") << spec.Name();
    EXPECT_TRUE(SameArrivals(again, spec)) << spec.Name();
    ArrivalProcess process(spec, static_cast<std::uint64_t>(c));
    for (std::uint64_t cycle = 0; cycle < 64; ++cycle) {
      const int n = process.ArrivalsAt(cycle);
      EXPECT_GE(n, 0);
      EXPECT_LE(n, 2 * kMaxArrivalRate);
    }
  }
  RecordProperty("accepted", accepted);
  RecordProperty("rejected", rejected);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SpecFuzzTest, TraceFiltersFailCleanlyOrRoundTrip) {
  const std::vector<std::string> seeds = {
      "query_issued,query_completed", "query_issued",
      MaskName(AllTraceKindsMask()), "query_completed,query_issued,"};
  int accepted = 0;
  int rejected = 0;
  for (int c = 0; c < kCasesPerParser; ++c) {
    const std::string text = MangledCase(seeds, 0x66696c746572ULL, c);
    SCOPED_TRACE("case " + std::to_string(c) + ": '" + text + "'");
    std::uint32_t mask = 0x5a5a;  // a sentinel a failed parse must leave alone
    const std::string error = ParseTraceKindMask(text, &mask);
    if (!error.empty()) {
      ++rejected;
      EXPECT_EQ(mask, 0x5a5au) << error;
      continue;
    }
    ++accepted;
    EXPECT_NE(mask, 0u);
    EXPECT_EQ(mask & ~AllTraceKindsMask(), 0u);
    std::uint32_t again = 0;
    ASSERT_EQ(ParseTraceKindMask(MaskName(mask), &again), "");
    EXPECT_EQ(again, mask);
  }
  RecordProperty("accepted", accepted);
  RecordProperty("rejected", rejected);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace p3q
