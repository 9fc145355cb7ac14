// Dual-slope conversion control FSM and the ramp/monotonicity checker.
//
// DualSlopeControl sequences the classic dual-slope conversion:
//   IDLE -> AUTO_ZERO -> INTEGRATE (fixed count) -> DEINTEGRATE (until the
//   comparator trips) -> DONE
// "Control circuit faults will stop the conversion process" (paper) — the
// stuck-state fault freezes the machine.
//
// MonotonicityChecker implements the AT&T-patent-style BIST: a ramp is
// applied to the ADC while a state machine watches the output codes and
// flags any decrease or repeat-length anomaly (US patent 5,132,685 per the
// paper's reference [7]).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace msbist::digital {

enum class ConvPhase : std::uint8_t {
  kIdle,
  kAutoZero,
  kIntegrate,
  kDeintegrate,
  kDone,
};

struct ControlFaults {
  /// The FSM never leaves this phase once entered (conversion stops).
  std::optional<ConvPhase> stuck_phase;
};

/// Control signals the FSM asserts each clock.
struct ControlOutputs {
  bool connect_input = false;   ///< integrator input switched to Vin
  bool connect_ref = false;     ///< integrator input switched to -Vref
  bool counter_enable = false;
  bool counter_clear = false;
  bool latch_strobe = false;    ///< capture the counter into the latch
  bool busy = false;
};

/// Clock-by-clock dual-slope sequencer.
///
/// The per-clock behaviour lives in the State overloads: the stateless
/// overloads apply them to this sequencer's own state, and the ADC's
/// lockstep conversion kernel applies them to one State per lane.
class DualSlopeControl {
 public:
  /// Everything the sequencer remembers between clocks.
  struct State {
    ConvPhase phase = ConvPhase::kIdle;
    std::uint32_t phase_clocks = 0;
    std::uint32_t deint_clocks = 0;
    bool timed_out = false;
  };

  /// integrate_counts: length of the fixed integrate phase in clocks.
  /// timeout_counts: de-integration abort limit (conversion failure).
  DualSlopeControl(std::uint32_t integrate_counts, std::uint32_t timeout_counts,
                   ControlFaults faults = {});

  /// Begin a conversion (from IDLE or DONE).
  void start() { start(state_); }
  void start(State& s) const;

  /// Advance one clock. comparator_high reports the zero-crossing detector.
  /// Returns the control outputs for this clock.
  ControlOutputs clock(bool comparator_high) {
    ControlOutputs outputs;
    clock(state_, comparator_high, [&outputs](const ControlOutputs& o) { outputs = o; });
    return outputs;
  }

  /// clock() on an explicit state, handing the outputs to `apply` instead
  /// of returning them. `apply` is called exactly once, from the branch
  /// that decided the outputs, so an inlining caller sees them as
  /// constants and runs only the datapath work this clock needs. Inline:
  /// this runs once per ADC clock, millions of times per production batch.
  template <class Apply>
  void clock(State& s, bool comparator_high, Apply&& apply) const {
    ControlOutputs out;
    out.busy = s.phase != ConvPhase::kIdle && s.phase != ConvPhase::kDone;
    if (frozen(s)) {
      // A stuck control circuit holds its current signals forever.
      out.connect_input = s.phase == ConvPhase::kIntegrate;
      out.connect_ref = s.phase == ConvPhase::kDeintegrate;
      apply(out);
      return;
    }
    switch (s.phase) {
      case ConvPhase::kIdle:
      case ConvPhase::kDone:
        apply(out);
        return;
      case ConvPhase::kAutoZero:
        // One clock of auto-zero: clear the counter, reset the integrator
        // (the analogue reset switch is driven by counter_clear here).
        out.counter_clear = true;
        s.phase = ConvPhase::kIntegrate;
        s.phase_clocks = 0;
        apply(out);
        return;
      case ConvPhase::kIntegrate:
        out.connect_input = true;
        ++s.phase_clocks;
        if (s.phase_clocks >= integrate_counts_) {
          s.phase = ConvPhase::kDeintegrate;
          s.phase_clocks = 0;
        }
        apply(out);
        return;
      case ConvPhase::kDeintegrate:
        out.connect_ref = true;
        ++s.deint_clocks;
        if (comparator_high) {
          out.latch_strobe = true;
          s.phase = ConvPhase::kDone;
          apply(out);
        } else if (s.deint_clocks >= timeout_counts_) {
          s.timed_out = true;
          out.counter_enable = true;
          out.latch_strobe = true;
          s.phase = ConvPhase::kDone;
          apply(out);
        } else {
          out.counter_enable = true;
          apply(out);
        }
        return;
    }
    apply(out);
  }

  ConvPhase phase() const { return state_.phase; }
  bool done() const { return state_.phase == ConvPhase::kDone; }
  /// True when de-integration hit the timeout (no comparator trip).
  bool timed_out() const { return state_.timed_out; }
  /// Clocks spent in the de-integration phase so far.
  std::uint32_t deintegrate_clocks() const { return state_.deint_clocks; }

 private:
  std::uint32_t integrate_counts_;
  std::uint32_t timeout_counts_;
  ControlFaults faults_;
  State state_;

  bool frozen(const State& s) const {
    return faults_.stuck_phase && s.phase == *faults_.stuck_phase;
  }
};

/// Result of a monotonicity scan over a code sequence.
struct MonotonicityReport {
  bool monotonic = true;
  std::size_t violations = 0;        ///< code decreases observed
  std::size_t first_violation_index = 0;
  std::uint32_t max_code = 0;
  std::size_t distinct_codes = 0;
};

/// On-chip ramp-test state machine: stream output codes in as the ramp
/// progresses; the checker tracks monotonicity without storing the stream.
/// allowed_dip sets the noise tolerance: a decrease of at most this many
/// counts between consecutive samples is ignored (conversion noise on a
/// real ADC flickers codes by a count or two; structural non-monotonicity
/// jumps further).
class MonotonicityChecker {
 public:
  explicit MonotonicityChecker(std::uint32_t allowed_dip = 0);

  void reset();
  /// Feed the next output code.
  void observe(std::uint32_t code);
  MonotonicityReport report() const;

 private:
  MonotonicityReport rep_;
  std::optional<std::uint32_t> last_;
  std::size_t index_ = 0;
  std::uint32_t allowed_dip_ = 0;
};

}  // namespace msbist::digital
