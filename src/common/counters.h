// Counter records: one list of fields per record.
//
// A counter record (sim/metrics.h, obs/profiler.h, core/query.h) names its
// fields once, in declaration order, in a static constexpr Counters() list:
// its merge, phase delta, baseline check, checkpoint layout and JSON order.
// A Sum adds on merge and subtracts on Since; a Peak takes the max on merge,
// keeps the newer side on Since and is not compared by Precedes; a Computed
// entry places a derived value in the JSON, and every fold skips it.
#ifndef P3Q_COMMON_COUNTERS_H_
#define P3Q_COMMON_COUNTERS_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>

namespace p3q {

/// `now - earlier` for monotone counters. Every integer Since goes through
/// here: a misordered snapshot (subtracting a LATER snapshot from an earlier
/// one) would otherwise silently wrap to ~2^64. Asserts the ordering in debug
/// builds; clamps to zero in release.
inline std::uint64_t MonotoneDelta(std::uint64_t now, std::uint64_t earlier) {
  assert(now >= earlier &&
         "monotone counter delta: 'earlier' snapshot is newer than 'now'");
  return now >= earlier ? now - earlier : 0;
}

enum class CounterFold { kSum, kPeak };

/// A listed field: its member and fold, and for a record rendered by key
/// (PhaseBreakdownToJson) its key and the decimals of a double.
template <class Record, class T, CounterFold kFold>
struct CounterField {
  static constexpr CounterFold fold = kFold;
  static constexpr std::size_t kBytes = sizeof(T);
  T Record::*member;
  const char* key;
  int decimals;
};

/// A value computed from the fields, at its place in the JSON.
template <class Record, class T>
struct ComputedField {
  static constexpr std::size_t kBytes = 0;
  T (Record::*member)() const;
  const char* key;
  int decimals;
};

template <class Record, class T>
constexpr CounterField<Record, T, CounterFold::kSum> Sum(
    T Record::*member, const char* key = nullptr, int decimals = 6) {
  return {member, key, decimals};
}

template <class Record, class T>
constexpr CounterField<Record, T, CounterFold::kPeak> Peak(
    T Record::*member, const char* key = nullptr, int decimals = 6) {
  return {member, key, decimals};
}

template <class Record, class T>
constexpr ComputedField<Record, T> Computed(T (Record::*member)() const,
                                            const char* key, int decimals = 6) {
  return {member, key, decimals};
}

template <class T>
inline constexpr bool kIsCounterArray = false;
template <class E, std::size_t N>
inline constexpr bool kIsCounterArray<std::array<E, N>> = true;

/// A record that lists its fields, or a std::array of counters (the
/// tracer's per-kind counts), which folds as a list of sums.
template <class T>
concept CounterRecord = kIsCounterArray<T> || requires { T::Counters(); };

/// Calls `visit(fold, c, c_of_others...)` for each integer or double `c` of
/// `value` in list order, with the counters at its place in `others`; `fold`
/// is a std::integral_constant<CounterFold, ..>. The walk inlines fully.
template <CounterFold kFold = CounterFold::kSum, class F, class T,
          class... Others>
void ForEachCounter(F&& visit, T& value, Others&... others) {
  using V = std::remove_const_t<T>;
  if constexpr (std::is_arithmetic_v<V>) {
    visit(std::integral_constant<CounterFold, kFold>{}, value, others...);
  } else if constexpr (kIsCounterArray<V>) {
    for (std::size_t i = 0; i < value.size(); ++i) {
      ForEachCounter<kFold>(visit, value[i], others[i]...);
    }
  } else {
    constexpr auto list = V::Counters();
    static_assert(std::apply([](auto... e) { return (e.kBytes + ...); },
                             list) == sizeof(V),
                  "a member of this record is missing from its Counters()");
    std::apply(
        [&](auto... entries) {
          ([&](auto entry) {
            if constexpr (entry.kBytes > 0) {  // not a Computed entry
              ForEachCounter<entry.fold>(visit, value.*entry.member,
                                         others.*entry.member...);
            }
          }(entries), ...);
        },
        list);
  }
}

/// Adds `from` into `into`; peaks take the maximum.
template <CounterRecord T>
void MergeCounters(T& into, const T& from) {
  ForEachCounter(
      [](auto fold, auto& mine, const auto& theirs) {
        mine = fold == CounterFold::kPeak ? std::max(mine, theirs)
                                          : mine + theirs;
      },
      into, from);
}

/// `now - earlier`; peaks keep `now`'s running maximum.
template <CounterRecord T>
T CountersSince(const T& now, const T& earlier) {
  T delta = now;
  ForEachCounter(
      [](auto fold, auto& d, const auto& e) {
        if constexpr (fold == CounterFold::kSum) {
          if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(d)>>) {
            d = MonotoneDelta(d, e);
          } else {
            d -= e;
          }
        }
      },
      delta, earlier);
  return delta;
}

/// True when no summed counter of `earlier` exceeds its match in `now`: what
/// CountersSince requires (a checkpoint load checks its baselines with it).
template <CounterRecord T>
bool Precedes(const T& earlier, const T& now) {
  bool precedes = true;
  ForEachCounter(
      [&](auto fold, const auto& e, const auto& n) {
        if (fold == CounterFold::kSum && e > n) precedes = false;
      },
      earlier, now);
  return precedes;
}

}  // namespace p3q

#endif  // P3Q_COMMON_COUNTERS_H_
