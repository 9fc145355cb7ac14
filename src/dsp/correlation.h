// Cross-correlation — the heart of the transient-response test.
//
// Correlating the captured transient y(t) with a signal p(t) derived from
// the applied PRBS stimulus yields R(y,p), which equals the composite
// impulse response of the signal path currently propagating the stimulus
// (paper, "Technique details"). Normalization makes the result comparable
// across devices with different gains.
#pragma once

#include <cstddef>
#include <vector>

namespace msbist::dsp {

/// Raw cross-correlation R_xy[lag] = sum_n x[n] * y[n + lag] for
/// lag in [-(y.size()-1), x.size()-1]. Result length x.size()+y.size()-1;
/// index 0 corresponds to the most negative lag.
std::vector<double> cross_correlate(const std::vector<double>& x,
                                    const std::vector<double>& y);

/// The lags [lag_begin, lag_end) of cross_correlate(x, y), summed directly:
/// element i is R_xy[lag_begin + i] (zero where x and y do not overlap).
/// Costs x.size() * (lag_end - lag_begin) multiply-adds, so it beats the
/// full FFT correlation when only a narrow window of lags is wanted.
std::vector<double> cross_correlate_lags(const std::vector<double>& x,
                                         const std::vector<double>& y,
                                         std::ptrdiff_t lag_begin,
                                         std::ptrdiff_t lag_end);

/// Cross-correlation normalized by the L2 norms of both inputs, so the
/// peak of the autocorrelation of any signal is exactly 1.
std::vector<double> cross_correlate_normalized(const std::vector<double>& x,
                                               const std::vector<double>& y);

/// Autocorrelation of x (raw).
std::vector<double> autocorrelate(const std::vector<double>& x);

/// Pearson correlation coefficient between two equal-length signals,
/// in [-1, 1]. Returns 0 when either signal has zero variance.
double correlation_coefficient(const std::vector<double>& a,
                               const std::vector<double>& b);

/// Lag (in samples, possibly negative) at which the normalized
/// cross-correlation of x and y peaks in absolute value.
std::ptrdiff_t peak_lag(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace msbist::dsp
