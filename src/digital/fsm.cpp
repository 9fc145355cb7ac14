#include "digital/fsm.h"

#include <stdexcept>

namespace msbist::digital {

DualSlopeControl::DualSlopeControl(std::uint32_t integrate_counts,
                                   std::uint32_t timeout_counts, ControlFaults faults)
    : integrate_counts_(integrate_counts), timeout_counts_(timeout_counts),
      faults_(faults) {
  if (integrate_counts_ == 0 || timeout_counts_ == 0) {
    throw std::invalid_argument("DualSlopeControl: counts must be > 0");
  }
}

void DualSlopeControl::start(State& s) const {
  if (s.phase != ConvPhase::kIdle && s.phase != ConvPhase::kDone) return;
  if (frozen(s)) return;
  s.phase = ConvPhase::kAutoZero;
  s.phase_clocks = 0;
  s.deint_clocks = 0;
  s.timed_out = false;
}

MonotonicityChecker::MonotonicityChecker(std::uint32_t allowed_dip)
    : allowed_dip_(allowed_dip) {
  reset();
}

void MonotonicityChecker::reset() {
  rep_ = MonotonicityReport{};
  last_.reset();
  index_ = 0;
}

void MonotonicityChecker::observe(std::uint32_t code) {
  if (last_) {
    if (code + allowed_dip_ < *last_) {
      if (rep_.monotonic) rep_.first_violation_index = index_;
      rep_.monotonic = false;
      ++rep_.violations;
    }
    if (code != *last_) ++rep_.distinct_codes;
  } else {
    rep_.distinct_codes = 1;
  }
  rep_.max_code = std::max(rep_.max_code, code);
  last_ = code;
  ++index_;
}

MonotonicityReport MonotonicityChecker::report() const { return rep_; }

}  // namespace msbist::digital
