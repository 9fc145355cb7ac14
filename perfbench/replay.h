// In-process traced replay of one job request.
//
// replay() runs the same engines service::dispatch would run for the
// request, calling each layer's public functions itself so that every
// call sits inside a span named after its layer. The replica must
// produce the same report as dispatch (timing fields aside).
// msbist-perfbench checks that, so a replica that drifted from the
// program shows up as a failed operation rather than as a silently
// different profile.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/job.h"
#include "service/dispatch.h"
#include "trace.h"

namespace perfbench {

/// Counts the traced replay reports beside its spans.
struct ReplayCounts {
  std::size_t report_bytes = 0;
  double simulated_ratio = 0.0;  ///< simulated faults / fault universe
  // BatchTransientStats of the lockstep march (screen only).
  std::size_t steps = 0;
  std::size_t unknowns = 0;
  std::size_t pattern_nnz = 0;
  std::size_t pivot_fallbacks = 0;
};

struct ReplayResult {
  /// The report document (the same text dispatch would put in
  /// DispatchResult::report_json). Empty for lockstep jobs, whose replica
  /// checks per-die verdicts against `reference` instead.
  std::string report_json;
  /// Lockstep only: dies whose verdict differs from the reference.
  std::size_t verdict_mismatches = 0;
  ReplayCounts counts;
};

/// Replay `body` (the request as sent over HTTP) under spans of job
/// `job`. The whole replay sits in one "service.dispatch" span whose
/// duration is comparable to an untraced service::dispatch; request
/// parsing is the sibling "core.request_parse" span. `reference` is an
/// untraced dispatch of the same request: lockstep jobs serialize its
/// report (the lockstep replica drives BatchTransient directly and has
/// no BatchReport of its own) and compare verdicts with it.
ReplayResult replay(const std::string& body, Tracer& tracer, std::uint64_t job,
                    const msbist::service::DispatchResult& reference);

}  // namespace perfbench
