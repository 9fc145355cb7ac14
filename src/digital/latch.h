// Output latch macro.
//
// Captures the counter value at end-of-conversion. Per the paper, "faults
// in the output latch submacro will manifest as multiple incorrect output
// codes" — modelled as stuck output bits and a load-failure mode.
#pragma once

#include <cstdint>

namespace msbist::digital {

struct LatchFaults {
  std::uint32_t stuck_high_mask = 0;  ///< output bits forced to 1
  std::uint32_t stuck_low_mask = 0;   ///< output bits forced to 0
  bool load_disabled = false;         ///< strobe never captures (stale data)
};

/// Parallel-load output register.
///
/// load() and q() also come in overloads on an explicit held value, which
/// the ADC's lockstep conversion kernel keeps one of per lane.
class OutputLatch {
 public:
  explicit OutputLatch(unsigned bits, LatchFaults faults = {});

  /// Capture a value on the load strobe.
  void load(std::uint32_t value) { load(value_, value); }
  void load(std::uint32_t& held, std::uint32_t value) const {
    if (faults_.load_disabled) return;
    held = value & mask_;
  }

  /// Latched output with fault masks applied.
  std::uint32_t q() const { return q(value_); }
  std::uint32_t q(std::uint32_t held) const {
    return (held | faults_.stuck_high_mask) & ~faults_.stuck_low_mask;
  }

  unsigned bits() const { return bits_; }

 private:
  unsigned bits_;
  LatchFaults faults_;
  std::uint32_t mask_;  ///< the low `bits_` bits
  std::uint32_t value_ = 0;
};

}  // namespace msbist::digital
