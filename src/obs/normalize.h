// Telemetry normalization for differential tests: strips the fields
// that legitimately differ between two runs of the same query so
// everything else can be compared byte-for-byte.
//
// Noise classes:
//   - wall-clock durations (machine-dependent; on by default),
//   - thread-pool lane usage (scheduling-dependent, and a resumed
//     process only worked the post-resume rounds; always dropped, so
//     two repeats at the same thread count compare clean by default),
//   - the pool size (a configuration, not noise; dropped on request so
//     runs at different thread counts can be compared),
//   - resume markers (a recovered run says so; the reference doesn't).
// Simulated clocks ("*_sim_seconds") are deterministic and always
// survive untouched.

#ifndef BAYESCROWD_OBS_NORMALIZE_H_
#define BAYESCROWD_OBS_NORMALIZE_H_

#include <string>

#include "obs/json.h"

namespace bayescrowd::obs {

struct NormalizeOptions {
  /// Zero numeric members whose key is wall-clock noise (see
  /// IsWallClockKey): durations whose key ends in "seconds" and does not
  /// mention "sim" (modeling_seconds, busy_seconds, ...), plus the
  /// solver's "deadline_hits" counters (whether the optional wall-clock
  /// cap fired is machine-dependent; what it degraded *to* is not).
  bool zero_wall_clock = true;

  /// Also drop the "threads" option, so a 1-thread run diffs
  /// byte-for-byte against an 8-thread run of the same query. Per-lane
  /// usage (IsLaneUsageKey) is dropped whatever this says.
  bool strip_lane_usage = false;

  /// Zero the "resumed" flag and drop "recovery."-prefixed metric keys
  /// (recovery.fallback, recovery.resumed, ...), so a recovered run
  /// diffs clean against its uninterrupted reference.
  bool strip_resume_markers = false;
};

/// True for keys whose numeric values are machine-dependent wall clock:
/// "*seconds" without "sim", "wall_ms", and the deadline-hit counters.
bool IsWallClockKey(const std::string& key);

/// True for keys holding per-lane pool usage ("lanes", "pool.lane*"):
/// task counts and busy time per lane depend on scheduling, not on the
/// query, so normalization always drops them.
bool IsLaneUsageKey(const std::string& key);

/// Recursively copies `v` with the configured noise removed.
JsonValue NormalizeTelemetry(const JsonValue& v,
                             const NormalizeOptions& options = {});

}  // namespace bayescrowd::obs

#endif  // BAYESCROWD_OBS_NORMALIZE_H_
