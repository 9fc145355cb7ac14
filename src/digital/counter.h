// Binary counter macro.
//
// The dual-slope ADC's conversion result is the count accumulated during
// the de-integration phase (100 kHz clock, 10 us per code in the paper).
// Fault-injection points follow the paper's observation that "counter
// submacro faults will show in the INL or DNL error or as regular missed
// codes".
#pragma once

#include <cstdint>
#include <optional>

namespace msbist::digital {

/// Counter fault models.
struct CounterFaults {
  /// A stuck output bit: that bit of the reported count is forced.
  std::optional<unsigned> stuck_bit;
  bool stuck_bit_high = false;
  /// Every Nth clock pulse is swallowed (regular missed codes), 0 = none.
  unsigned miss_every = 0;
};

/// Synchronous binary up-counter with enable and synchronous clear.
///
/// The per-clock behaviour lives in the State overloads: the stateless
/// overloads apply them to this counter's own state, and the ADC's
/// lockstep conversion kernel applies them to one State per lane.
class BinaryCounter {
 public:
  /// Everything a counter remembers between clocks.
  struct State {
    std::uint32_t value = 0;
    std::uint64_t pulses_seen = 0;
    bool enable = false;
    bool overflow = false;
  };

  explicit BinaryCounter(unsigned bits, CounterFaults faults = {});

  void clear() { clear(state_); }
  void clear(State& s) const {
    s.value = 0;
    s.overflow = false;
  }
  void set_enable(bool en) { state_.enable = en; }
  bool enabled() const { return state_.enable; }

  /// One clock edge; counts when enabled. Returns the new visible count.
  std::uint32_t clock() { return clock(state_); }

  /// clock() on an explicit state. Inline: runs once per ADC clock,
  /// millions of times per batch.
  std::uint32_t clock(State& s) const {
    if (s.enable) {
      ++s.pulses_seen;
      const bool swallowed =
          faults_.miss_every != 0 && (s.pulses_seen % faults_.miss_every == 0);
      if (!swallowed) {
        if (s.value == max_) {
          s.value = 0;
          s.overflow = true;
        } else {
          ++s.value;
        }
      }
    }
    return count(s);
  }

  /// Visible count (with stuck-bit fault applied).
  std::uint32_t count() const { return count(state_); }
  std::uint32_t count(const State& s) const {
    std::uint32_t v = s.value;
    if (faults_.stuck_bit) {
      const std::uint32_t mask = 1u << *faults_.stuck_bit;
      if (faults_.stuck_bit_high) {
        v |= mask;
      } else {
        v &= ~mask;
      }
    }
    return v;
  }

  /// True internal count (test-only visibility).
  std::uint32_t raw_count() const { return state_.value; }

  unsigned bits() const { return bits_; }
  std::uint32_t max_count() const { return max_; }
  bool overflowed() const { return state_.overflow; }

 private:
  unsigned bits_;
  CounterFaults faults_;
  std::uint32_t max_ = 0;  ///< 2^bits - 1
  State state_;
};

}  // namespace msbist::digital
