// Voltage comparator macro (behavioural).
//
// The dual-slope ADC uses a comparator to detect the integrator's
// zero/threshold crossing; its offset and delay feed directly into the
// ADC's zero-offset and gain errors (paper, "Full testing of the ADC
// macro": "faults in the comparator submacro will contribute to the
// offset error and gain error").
#pragma once

#include <stdexcept>

#include "analog/macro.h"

namespace msbist::analog {

struct ComparatorParams {
  double offset_v = 0.0;       ///< input-referred offset [V]
  double hysteresis_v = 1e-3;  ///< total hysteresis width [V]
  double delay_s = 2e-6;       ///< propagation delay [s]
  double v_low = 0.0;          ///< logic-low output level [V]
  double v_high = 5.0;         ///< logic-high output level [V]

  ComparatorParams varied(ProcessVariation& pv) const;
};

/// Clocked/continuous comparator with hysteresis and a transport delay
/// realized as a pending-edge timer. Call step() once per simulation step.
///
/// The per-step behaviour lives in advance(), which steps an explicit
/// State: step() applies it to this model's own state, and the ADC's
/// lockstep conversion kernel applies it to one State per lane.
class ComparatorModel {
 public:
  /// Everything a comparator remembers between steps.
  struct State {
    bool out_high = false;       ///< committed (visible) output state
    bool pending_valid = false;  ///< an edge is in flight
    bool pending_state = false;
    double pending_timer = 0.0;
  };

  explicit ComparatorModel(ComparatorParams p);

  void reset(bool output_high = false) { state_ = State{output_high}; }

  /// Advance by dt with the given inputs; returns the (possibly delayed)
  /// output level.
  double step(double v_plus, double v_minus, double dt) {
    if (dt <= 0) throw std::invalid_argument("ComparatorModel::step: dt must be > 0");
    return level(advance(state_, v_plus, v_minus, dt));
  }

  /// step() on an explicit state, for a caller that has checked dt > 0
  /// once; returns the committed output state. Inline: runs once per
  /// simulation step, millions of times per production batch.
  bool advance(State& s, double v_plus, double v_minus, double dt) const {
    const double vid = v_plus - v_minus + params_.offset_v;
    // Hysteresis around zero: the comparison target shifts away from the
    // current committed state.
    const bool raw = vid > (s.out_high ? -half_hyst_ : half_hyst_);

    if (instant_) {
      s.out_high = raw;
    } else if (raw != s.out_high) {
      if (!s.pending_valid || s.pending_state != raw) {
        s.pending_valid = true;
        s.pending_state = raw;
        s.pending_timer = params_.delay_s;
      } else {
        s.pending_timer -= dt;
        if (s.pending_timer <= 0.0) {
          s.out_high = s.pending_state;
          s.pending_valid = false;
        }
      }
    } else {
      // Input went back before the delay elapsed: cancel the edge.
      s.pending_valid = false;
    }
    return s.out_high;
  }

  /// The output level of a committed state.
  double level(bool high) const { return high ? params_.v_high : params_.v_low; }

  bool output_high() const { return state_.out_high; }
  const ComparatorParams& params() const { return params_; }

 private:
  ComparatorParams params_;
  double half_hyst_;  ///< half the hysteresis width
  bool instant_;      ///< no propagation delay: delay_s <= 0
  State state_;
};

}  // namespace msbist::analog
