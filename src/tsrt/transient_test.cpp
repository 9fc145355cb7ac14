#include "tsrt/transient_test.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "circuit/transient.h"
#include "dsp/correlation.h"
#include "dsp/noise.h"
#include "dsp/vec.h"
#include "dsp/prbs.h"
#include "dsp/spectrum.h"

namespace msbist::tsrt {

TsrtOptions paper_options(CircuitKind kind) {
  TsrtOptions o;
  switch (kind) {
    case CircuitKind::kOp1Follower:
      break;  // the paper's 15-bit, 250 us, 0/5 V stimulus (defaults)
    case CircuitKind::kScIntegratorComparator:
      o.center_on_mid_rail = true;
      o.amplitude = 2.0;
      o.bit_time = 4.0 * kScCycleSeconds;
      o.sim_time = kScSimSeconds;
      break;
    case CircuitKind::kScIntegratorAlone:
      o.center_on_mid_rail = true;
      o.amplitude = 0.5;
      o.bit_time = kScCycleSeconds;
      o.sim_time = kScSimSeconds;
      break;
  }
  return o;
}

namespace {

TsrtRun run_prepared(ExampleCircuit& c, const TsrtOptions& opts);

}  // namespace

TsrtRun run_transient_test(CircuitKind kind,
                           const std::optional<faults::FaultSpec>& fault,
                           const TsrtOptions& opts) {
  ExampleCircuit c = build_circuit(kind);
  if (fault) faults::inject(c.netlist, *fault, c.node_map);
  return run_prepared(c, opts);
}

TsrtRun run_transient_test(CircuitKind kind, const faults::ParametricFault& fault,
                           const TsrtOptions& opts) {
  ExampleCircuit c = build_circuit(kind);
  if (inject_parametric(c.netlist, fault) == 0) {
    throw std::invalid_argument("run_transient_test: parametric fault touched no device");
  }
  return run_prepared(c, opts);
}

namespace {

TsrtRun run_prepared(ExampleCircuit& c, const TsrtOptions& opts) {

  const double dt = opts.dt_override > 0 ? opts.dt_override : c.recommended_dt;
  const auto samples_per_bit = static_cast<std::size_t>(std::llround(opts.bit_time / dt));
  if (samples_per_bit == 0) {
    throw std::invalid_argument("run_transient_test: dt exceeds the PRBS bit time");
  }

  // Stimulus: one PRBS period (or enough periods to fill sim_time).
  dsp::Prbs prbs(opts.prbs_stages, opts.prbs_seed);
  const double low = opts.center_on_mid_rail ? c.mid_rail - opts.amplitude / 2.0 : 0.0;
  const double high = opts.center_on_mid_rail ? c.mid_rail + opts.amplitude / 2.0
                                              : opts.amplitude;
  const double period_time =
      static_cast<double>(prbs.period()) * opts.bit_time;
  const double t_stop = opts.sim_time > 0 ? opts.sim_time : period_time;
  const auto bits_needed =
      static_cast<std::size_t>(std::ceil(t_stop / opts.bit_time)) + 1;
  const std::vector<double> stim_samples =
      dsp::bits_to_waveform(prbs.bits(bits_needed), samples_per_bit, low, high);

  c.input->set_waveform(std::make_shared<circuit::SampledWave>(stim_samples, dt));

  circuit::TransientOptions topts;
  topts.dt = dt;
  topts.t_stop = t_stop;
  // Backward Euler: the transistor-level loops (follower, SC charge
  // transfer) are stiff; trapezoidal rings on them.
  topts.method = circuit::Integration::kBackwardEuler;

  TsrtRun run;
  run.dt = dt;
  {
    // Copy out the waveforms the signatures use, then free the run's
    // state block (every unknown at every sample) before correlating.
    const circuit::TransientResult res = circuit::transient(c.netlist, topts);
    run.time = res.time();
    const circuit::WaveformView out = res.voltage(c.output_node);
    run.response.assign(out.begin(), out.end());
    run.supply_current.assign(run.time.size(), 0.0);
    for (const auto& src : c.supply_sources) {
      const circuit::WaveformView i = res.current(src);
      // The VDD source's branch current is negative when the circuit draws
      // current; flip the sign so the signature reads as consumption.
      for (std::size_t k = 0; k < run.supply_current.size(); ++k) {
        run.supply_current[k] -= i[k];
      }
    }
  }
  run.stimulus.resize(run.time.size());
  for (std::size_t k = 0; k < run.time.size(); ++k) {
    run.stimulus[k] =
        k < stim_samples.size() ? stim_samples[k] : stim_samples.back();
  }
  if (opts.noise_sigma > 0) {
    run.response = dsp::add_noise(run.response, opts.noise_sigma, opts.noise_seed);
  }

  // p(t) is derived from the applied stimulus: remove its mean so the
  // correlation is not dominated by the DC pedestal, then correlate.
  std::vector<double> p = run.stimulus;
  double mean = 0.0;
  for (double v : p) mean += v;
  mean /= static_cast<double>(p.size());
  for (double& v : p) v -= mean;
  std::vector<double> y = run.response;
  double ymean = 0.0;
  for (double v : y) ymean += v;
  ymean /= static_cast<double>(y.size());
  for (double& v : y) v -= ymean;

  // Scale by the stimulus energy only: R(y,p)/||p||^2 estimates the
  // composite impulse response with its amplitude intact (a gain fault
  // must shrink the signature, so do not normalize by the response norm).
  // Only the window around zero lag is kept: one bit of negative lag,
  // correlation_window_bits of positive lag.
  const auto spb = static_cast<std::ptrdiff_t>(samples_per_bit);
  const auto n = static_cast<std::ptrdiff_t>(p.size());
  const std::ptrdiff_t lag_lo = -std::min(n - 1, spb);
  const auto span = static_cast<std::ptrdiff_t>(
      (opts.correlation_window_bits + 1.0) * static_cast<double>(samples_per_bit));
  const std::ptrdiff_t lag_hi = std::min(n, lag_lo + span);
  run.correlation = dsp::cross_correlate_lags(p, y, lag_lo, lag_hi);
  const double penergy = dsp::dot(p, p);
  if (penergy > 0) {
    for (double& v : run.correlation) v /= penergy;
  }
  return run;
}

}  // namespace

double correlation_detection_percent(const TsrtRun& reference, const TsrtRun& faulty,
                                     const DetectorOptions& opts) {
  return detection_percent(reference.correlation, faulty.correlation, opts);
}

double waveform_detection_percent(const TsrtRun& reference, const TsrtRun& faulty,
                                  const DetectorOptions& opts) {
  return detection_percent(reference.response, faulty.response, opts);
}

double spectrum_detection_percent(const TsrtRun& reference, const TsrtRun& faulty,
                                  const DetectorOptions& opts) {
  const std::vector<double> ref = dsp::magnitude_spectrum(reference.response);
  const std::vector<double> fty = dsp::magnitude_spectrum(faulty.response);
  if (ref.empty() || ref.size() != fty.size()) {
    throw std::invalid_argument("spectrum_detection_percent: size mismatch");
  }
  // A PRBS response concentrates its energy in a handful of harmonic
  // bins; empty bins carry no information, so the instance count runs
  // over the energetic bins only (either signal above 2 % of the
  // reference peak).
  const double peak = dsp::max_abs(ref);
  const double floor_level = 0.02 * peak;
  const double tol = std::max(opts.tolerance_abs, opts.tolerance_frac * peak);
  std::size_t considered = 0, hits = 0;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    if (ref[k] < floor_level && fty[k] < floor_level) continue;
    ++considered;
    if (std::abs(fty[k] - ref[k]) > tol) ++hits;
  }
  if (considered == 0) return 0.0;
  return 100.0 * static_cast<double>(hits) / static_cast<double>(considered);
}

double idd_detection_percent(const TsrtRun& reference, const TsrtRun& faulty,
                             const DetectorOptions& opts) {
  return detection_percent(reference.supply_current, faulty.supply_current, opts);
}

double combined_detection_percent(const TsrtRun& reference, const TsrtRun& faulty,
                                  const DetectorOptions& opts) {
  return std::max(correlation_detection_percent(reference, faulty, opts),
                  idd_detection_percent(reference, faulty, opts));
}

}  // namespace msbist::tsrt
