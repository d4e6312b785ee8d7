// Mode-graph edge coverage (docs/FUZZING.md).
//
// A run's behavior is canonicalized by its mode-transition sequence (the
// mode graph, core/mode_graph.h), and a fault plan's search-relevant
// identity by *when* it first perturbs that sequence. Coverage keys combine
// the two: one key per (mode-graph edge, injection-window bucket), where the
// edge is a consecutive pair of distinct composite mode ids observed in a
// run and the bucket is the plan's first injection timestamp quantized to
// kCoverageWindowMs (-1 for fault-free plans). The checker accumulates keys
// for every applied experiment (CheckerReport::edge_coverage), which makes
// the map deterministic: results are applied in submission order, and
// transitions are bit-identical across worker counts and checkpoint modes
// — so unlike the checkpoint_* counters, edge coverage is part of report
// identity, not masked out of it.
//
// The scenario fuzzer (src/fuzz/) uses these keys as its fitness signal: a
// mutant scenario is interesting iff it reaches a key no corpus entry has.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/fault_plan.h"

namespace avis::core {

// Injection-window quantum. Coarse enough that the offset crawl around one
// transition (12 x 200 ms per direction) usually lands in one or two
// buckets, fine enough that distinct mission phases (takeoff, legs, RTL,
// landing) get distinct buckets.
inline constexpr sim::SimTimeMs kCoverageWindowMs = 5000;

struct CoverageKey {
  std::uint16_t from_mode = 0;
  std::uint16_t to_mode = 0;
  std::int32_t window = -1;  // injection bucket; -1 = plan injects nothing

  auto operator<=>(const CoverageKey&) const = default;
};

// Key -> number of runs that traversed the edge under that window. std::map
// so iteration (serialization, signatures) is deterministic by construction.
using CoverageMap = std::map<CoverageKey, int>;

inline std::int32_t coverage_window_bucket(sim::SimTimeMs first_injection_ms) {
  if (first_injection_ms == FaultPlan::kNever) return -1;
  return static_cast<std::int32_t>(first_injection_ms / kCoverageWindowMs);
}

// Accumulates one run: every consecutive pair of distinct mode ids in
// `transitions` is an edge, keyed by the plan's injection bucket. Mirrors
// ModeGraph's edge rule so the coverage map is a windowed view of the same
// graph the monitor reasons about.
inline void accumulate_run_coverage(CoverageMap& map, const FaultPlan& plan,
                                    const std::vector<ModeTransition>& transitions) {
  const std::int32_t window = coverage_window_bucket(plan.first_injection_ms());
  bool have_prev = false;
  std::uint16_t prev = 0;
  for (const ModeTransition& t : transitions) {
    if (have_prev && prev != t.mode_id) {
      map[CoverageKey{prev, t.mode_id, window}] += 1;
    }
    have_prev = true;
    prev = t.mode_id;
  }
}

inline void merge_coverage(CoverageMap& into, const CoverageMap& from) {
  for (const auto& [key, count] : from) into[key] += count;
}

// "12->34@w3" / "12->34@w-1" — the human-readable key the campaign report
// and fuzz report print.
inline std::string coverage_key_string(const CoverageKey& key) {
  return std::to_string(key.from_mode) + "->" + std::to_string(key.to_mode) + "@w" +
         std::to_string(key.window);
}

// True when every key of `inner` appears in `outer` (counts ignored) — the
// corpus manager's dominance test.
inline bool coverage_keys_subset(const CoverageMap& inner, const CoverageMap& outer) {
  for (const auto& [key, count] : inner) {
    if (!outer.contains(key)) return false;
  }
  return true;
}

}  // namespace avis::core
