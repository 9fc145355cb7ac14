#include "adc/dual_slope.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace msbist::adc {

DualSlopeAdcConfig DualSlopeAdcConfig::ideal() {
  DualSlopeAdcConfig cfg;
  cfg.comparator_noise_v = 0.0;
  cfg.integrator.cap_ratio = static_cast<double>(cfg.integrate_counts);
  cfg.integrator.vout_min = 0.0;
  cfg.integrator.vout_max = 5.0;
  cfg.comparator.delay_s = 0.0;
  cfg.comparator.hysteresis_v = 0.0;
  cfg.comparator.offset_v = 0.0;
  return cfg;
}

DualSlopeAdcConfig DualSlopeAdcConfig::characterized() {
  DualSlopeAdcConfig cfg = ideal();
  // Non-idealities generating the published error budget over the
  // characterized 0..100-code span (single-shot ramp measurement, the
  // protocol a 1996 bench characterization would use):
  //  * input-path (sampling switch) nonlinearity — INL curvature; the
  //    symmetric integrator nonlinearity cancels in dual slope
  //  * run-down gain mismatch (asymmetric charge injection) — gain error
  //    ~0.5 LSB; the symmetric capacitor-ratio error also cancels
  //  * comparator offset — zero offset (with pedestal rounding) < 0.2 LSB
  //  * per-conversion comparator noise — the DNL wiggle of Figure 2
  //    (~1.2 LSB peaks) and its random-walk accumulation into INL (~1.3)
  cfg.integrator.input_nonlinearity = 2e-3;
  cfg.integrator.invert_gain_mismatch = -2e-3;
  cfg.comparator.offset_v = 4e-3;
  cfg.comparator_noise_v = 5.5e-3;
  cfg.noise_seed = 9;
  return cfg;
}

DualSlopeAdcConfig DualSlopeAdcConfig::varied(analog::ProcessVariation& pv) const {
  DualSlopeAdcConfig cfg = *this;
  cfg.integrator = integrator.varied(pv);
  cfg.comparator = comparator.varied(pv);
  return cfg;
}

DualSlopeAdc::DualSlopeAdc(DualSlopeAdcConfig cfg)
    : cfg_(cfg), noise_rng_(cfg.noise_seed) {
  if (cfg_.vref <= 0 || cfg_.clock_hz <= 0) {
    throw std::invalid_argument("DualSlopeAdc: vref and clock must be > 0");
  }
  if (cfg_.integrate_counts == 0) {
    throw std::invalid_argument("DualSlopeAdc: integrate_counts must be > 0");
  }
}

double DualSlopeAdc::lsb_volts() const {
  return cfg_.vref / static_cast<double>(cfg_.integrate_counts);
}

std::uint32_t DualSlopeAdc::pedestal_counts() const {
  // Pedestal volts divided by the per-count de-integration step g*vref,
  // with g = 1/cap_ratio.
  const double step = cfg_.vref / cfg_.integrator.cap_ratio;
  return static_cast<std::uint32_t>(std::llround(cfg_.pedestal_v / step));
}

std::uint32_t DualSlopeAdc::full_scale_code() const {
  return cfg_.integrate_counts + pedestal_counts();
}

std::uint32_t DualSlopeAdc::ideal_code(double vin) const {
  const double clamped = std::clamp(vin, 0.0, cfg_.vref);
  const double counts =
      static_cast<double>(cfg_.integrate_counts) * (1.0 - clamped / cfg_.vref);
  return pedestal_counts() + static_cast<std::uint32_t>(std::llround(counts));
}

void DualSlopeAdc::reseed_noise(std::uint64_t seed) {
  noise_rng_.seed(seed);
}

ConversionResult DualSlopeAdc::convert(double vin) {
  ConversionResult res;
  convert_many({&vin, 1}, {&res, 1});
  return res;
}

void DualSlopeAdc::convert_many(std::span<const double> vin,
                                std::span<ConversionResult> out) {
  if (vin.size() != out.size()) {
    throw std::invalid_argument("DualSlopeAdc::convert_many: vin and out sizes differ");
  }
  const double t_clk = 1.0 / cfg_.clock_hz;

  // The sub-macros hold the configuration; each conversion's state lives
  // in its lane. A conversion is a complete auto-zeroed cycle, so no
  // analogue state survives between conversions.
  const analog::ScIntegratorModel integrator(cfg_.integrator);
  const analog::ComparatorModel comparator(cfg_.comparator);
  const digital::BinaryCounter counter(kAdcCounterBits, cfg_.counter_faults);
  const digital::OutputLatch latch(kAdcLatchBits, cfg_.latch_faults);
  const digital::DualSlopeControl control(cfg_.integrate_counts, cfg_.timeout_counts,
                                          cfg_.control_faults);
  if (t_clk <= 0) {
    throw std::invalid_argument("DualSlopeAdc: clock period must be > 0");
  }

  // The comparator output as the control logic reads it (2.5 V logic
  // threshold), for each committed comparator state.
  const bool trips_when_high = comparator.level(true) > 2.5;
  const bool trips_when_low = comparator.level(false) > 2.5;
  // Auto-zero: integrator preset to the baseline plus pedestal.
  const double preset = integrator.clamp(cfg_.comparator_threshold + cfg_.pedestal_v);
  // Hard cycle budget: a stuck control FSM must not hang the caller.
  const std::uint64_t max_cycles =
      2ull + cfg_.integrate_counts + cfg_.timeout_counts + 8ull;

  // Per-lane state, one array per quantity.
  std::array<analog::ComparatorModel::State, kLanes> comp;
  std::array<digital::DualSlopeControl::State, kLanes> ctrl;
  std::array<digital::BinaryCounter::State, kLanes> count;
  std::array<std::uint32_t, kLanes> held{};
  std::array<double, kLanes> vout{}, drive{}, threshold{}, peak{}, done_at{};
  std::array<bool, kLanes> done{};

  for (std::size_t first = 0; first < vin.size(); first += kLanes) {
    const std::size_t n = std::min(kLanes, vin.size() - first);
    for (std::size_t l = 0; l < n; ++l) {
      // Per-conversion comparator noise, drawn in input order (and drawn
      // even when unused so the stream stays aligned across
      // configurations with the same seed).
      std::normal_distribution<double> noise_dist(0.0, 1.0);
      const double noise = cfg_.comparator_noise_v > 0.0
                               ? cfg_.comparator_noise_v * noise_dist(noise_rng_)
                               : (noise_dist(noise_rng_), 0.0);
      comp[l] = {};
      ctrl[l] = {};
      count[l] = {};
      held[l] = 0;
      vout[l] = integrator.clamp(0.0);
      // Integrate phase: slope proportional to (Vref - Vin).
      drive[l] = cfg_.vref - vin[first + l];
      threshold[l] = cfg_.comparator_threshold + noise;
      peak[l] = 0.0;
      done_at[l] = 0.0;
      done[l] = false;
      control.start(ctrl[l]);
    }

    // The clock is the outer loop; each clock steps every lane still
    // converting. A lane finishes on its latch strobe.
    std::size_t live = n;
    for (std::uint64_t cycle = 0; cycle < max_cycles && live > 0; ++cycle) {
      for (std::size_t l = 0; l < n; ++l) {
        if (done[l]) continue;
        // Comparator watches the integrator against the baseline
        // threshold: output high once the integrator has fallen back
        // below Vth.
        const bool comp_high = comparator.advance(comp[l], threshold[l], vout[l], t_clk)
                                   ? trips_when_high
                                   : trips_when_low;
        control.clock(ctrl[l], comp_high, [&](const digital::ControlOutputs& ctl) {
          double v = vout[l];
          if (ctl.counter_clear) {
            counter.clear(count[l]);
            v = preset;
          }
          count[l].enable = ctl.counter_enable;
          if (ctl.connect_input) {
            v = integrator.next(v, drive[l], /*invert=*/false);
          } else if (ctl.connect_ref) {
            // De-integration: constant downward slope proportional to Vref.
            v = integrator.next(v, cfg_.vref, /*invert=*/true);
          }
          vout[l] = v;
          if (ctl.counter_enable) counter.clock(count[l]);
          peak[l] = std::max(peak[l], v);
          if (ctl.latch_strobe) {
            latch.load(held[l], counter.count(count[l]));
            done_at[l] = static_cast<double>(cycle + 1) * t_clk;
            done[l] = true;
            --live;
          }
        });
      }
    }

    for (std::size_t l = 0; l < n; ++l) {
      ConversionResult& res = out[first + l];
      res.code = latch.q(held[l]);
      res.conversion_time_s = done_at[l];
      res.fall_time_s = static_cast<double>(ctrl[l].deint_clocks) * t_clk;
      res.integrator_peak_v = peak[l];
      res.timed_out = ctrl[l].timed_out;
      res.completed = done[l];
    }
  }
}

}  // namespace msbist::adc
