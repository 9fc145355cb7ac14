#include "dsp/correlation.h"

#include <algorithm>
#include <cmath>

#include "dsp/convolution.h"
#include "dsp/vec.h"

namespace msbist::dsp {

std::vector<double> cross_correlate(const std::vector<double>& x,
                                    const std::vector<double>& y) {
  if (x.empty() || y.empty()) return {};
  // R_xy(lag) = (x reversed) * y — convolution with the first operand
  // time-reversed gives correlation.
  std::vector<double> xr(x.rbegin(), x.rend());
  return convolve(xr, y);
}

std::vector<double> cross_correlate_lags(const std::vector<double>& x,
                                         const std::vector<double>& y,
                                         std::ptrdiff_t lag_begin,
                                         std::ptrdiff_t lag_end) {
  if (lag_end <= lag_begin) return {};
  std::vector<double> r(static_cast<std::size_t>(lag_end - lag_begin), 0.0);
  const auto nx = static_cast<std::ptrdiff_t>(x.size());
  const auto ny = static_cast<std::ptrdiff_t>(y.size());
  // Sample-outer, lag-inner: the inner loop walks r and y contiguously so
  // it vectorizes, and each lag still sums its products in sample order.
  for (std::ptrdiff_t n = 0; n < nx; ++n) {
    const std::ptrdiff_t lo = std::max(lag_begin, -n);
    const std::ptrdiff_t hi = std::min(lag_end, ny - n);
    if (lo >= hi) continue;
    const double xn = x[static_cast<std::size_t>(n)];
    double* out = r.data() + (lo - lag_begin);
    const double* yn = y.data() + (n + lo);
    for (std::ptrdiff_t i = 0; i < hi - lo; ++i) out[i] += xn * yn[i];
  }
  return r;
}

std::vector<double> cross_correlate_normalized(const std::vector<double>& x,
                                               const std::vector<double>& y) {
  std::vector<double> r = cross_correlate(x, y);
  const double nx = norm(x);
  const double ny = norm(y);
  const double denom = nx * ny;
  if (denom <= 0.0) return std::vector<double>(r.size(), 0.0);
  return scale(r, 1.0 / denom);
}

std::vector<double> autocorrelate(const std::vector<double>& x) {
  return cross_correlate(x, x);
}

double correlation_coefficient(const std::vector<double>& a,
                               const std::vector<double>& b) {
  const double ma = mean(a);
  const double mb = mean(b);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  if (saa <= 0.0 || sbb <= 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

std::ptrdiff_t peak_lag(const std::vector<double>& x, const std::vector<double>& y) {
  const std::vector<double> r = cross_correlate_normalized(x, y);
  if (r.empty()) return 0;
  const std::size_t idx = argmax_abs(r);
  // Index 0 corresponds to lag -(x.size()-1) under the reversed-convolve
  // layout used in cross_correlate.
  return static_cast<std::ptrdiff_t>(idx) - static_cast<std::ptrdiff_t>(x.size() - 1);
}

}  // namespace msbist::dsp
