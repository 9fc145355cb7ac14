// Unit tests for convolution and cross-correlation.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "dsp/convolution.h"
#include "dsp/correlation.h"
#include "dsp/vec.h"

namespace msbist::dsp {
namespace {

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> x(n);
  for (auto& v : x) v = d(rng);
  return x;
}

TEST(Convolution, KnownSmallCase) {
  // (1 + 2x)(3 + 4x) = 3 + 10x + 8x^2 as sequence convolution.
  const auto r = convolve_direct({1.0, 2.0}, {3.0, 4.0});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 10.0);
  EXPECT_DOUBLE_EQ(r[2], 8.0);
}

TEST(Convolution, IdentityKernel) {
  const std::vector<double> x{1.0, -2.0, 3.0};
  const auto r = convolve_direct(x, {1.0});
  EXPECT_EQ(r, x);
}

TEST(Convolution, EmptyOperands) {
  EXPECT_TRUE(convolve_direct({}, {1.0}).empty());
  EXPECT_TRUE(convolve_fft({1.0}, {}).empty());
}

TEST(Convolution, FftMatchesDirect) {
  const auto a = random_vec(130, 11);
  const auto b = random_vec(77, 22);
  const auto d = convolve_direct(a, b);
  const auto f = convolve_fft(a, b);
  ASSERT_EQ(d.size(), f.size());
  EXPECT_TRUE(approx_equal(d, f, 1e-9));
}

TEST(Convolution, Commutativity) {
  const auto a = random_vec(20, 3);
  const auto b = random_vec(31, 4);
  EXPECT_TRUE(approx_equal(convolve(a, b), convolve(b, a), 1e-10));
}

TEST(Convolution, DistributesOverAddition) {
  const auto a = random_vec(16, 5);
  const auto b = random_vec(16, 6);
  const auto k = random_vec(9, 7);
  const auto lhs = convolve(add(a, b), k);
  const auto rhs = add(convolve(a, k), convolve(b, k));
  EXPECT_TRUE(approx_equal(lhs, rhs, 1e-10));
}

TEST(Convolution, SameModePreservesLength) {
  const auto a = random_vec(50, 8);
  const auto k = random_vec(7, 9);
  EXPECT_EQ(convolve_same(a, k).size(), a.size());
}

TEST(Correlation, AutocorrelationPeaksAtZeroLag) {
  const auto x = random_vec(64, 10);
  const auto r = autocorrelate(x);
  // Zero lag sits at index x.size()-1.
  EXPECT_EQ(argmax_abs(r), x.size() - 1);
  EXPECT_NEAR(r[x.size() - 1], dot(x, x), 1e-9);
}

TEST(Correlation, NormalizedAutocorrelationPeakIsOne) {
  const auto x = random_vec(40, 12);
  const auto r = cross_correlate_normalized(x, x);
  EXPECT_NEAR(r[x.size() - 1], 1.0, 1e-12);
  for (double v : r) EXPECT_LE(std::abs(v), 1.0 + 1e-12);
}

TEST(Correlation, DetectsKnownShift) {
  // y is x delayed by 5 samples; the correlation peak must sit at lag 5.
  const auto x = random_vec(100, 13);
  std::vector<double> y(x.size() + 5, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) y[i + 5] = x[i];
  EXPECT_EQ(peak_lag(x, y), 5);
}

TEST(Correlation, NegativeShift) {
  const auto x = random_vec(80, 14);
  // y is x advanced: x delayed by -3 means y[i] = x[i+3].
  std::vector<double> y(x.begin() + 3, x.end());
  EXPECT_EQ(peak_lag(x, y), -3);
}

TEST(Correlation, LagWindowMatchesFullCorrelation) {
  // Unequal lengths, so both overlap edges and the zero-filled lags
  // beyond them are exercised.
  const auto x = random_vec(300, 19);
  const auto y = random_vec(217, 20);
  const std::vector<double> full = cross_correlate(x, y);
  const auto zero = static_cast<std::ptrdiff_t>(x.size()) - 1;  // lag 0 index
  const auto full_size = static_cast<std::ptrdiff_t>(full.size());
  const double peak = max_abs(full);
  for (const auto& [lo, hi] : {std::pair<std::ptrdiff_t, std::ptrdiff_t>{-20, 64},
                              {-299, 217}, {-310, -290}, {200, 230}, {5, 5}}) {
    const std::vector<double> w = cross_correlate_lags(x, y, lo, hi);
    ASSERT_EQ(w.size(), static_cast<std::size_t>(hi - lo));
    for (std::ptrdiff_t lag = lo; lag < hi; ++lag) {
      const std::ptrdiff_t idx = lag + zero;
      const double expect = idx >= 0 && idx < full_size
                                ? full[static_cast<std::size_t>(idx)]
                                : 0.0;
      EXPECT_LE(std::abs(w[static_cast<std::size_t>(lag - lo)] - expect),
                1e-12 * peak)
          << "lag " << lag;
    }
  }
}

TEST(Correlation, CoefficientBounds) {
  const auto a = random_vec(64, 15);
  EXPECT_NEAR(correlation_coefficient(a, a), 1.0, 1e-12);
  EXPECT_NEAR(correlation_coefficient(a, scale(a, -2.0)), -1.0, 1e-12);
}

TEST(Correlation, ZeroVarianceYieldsZero) {
  const std::vector<double> flat(10, 3.0);
  const auto x = random_vec(10, 16);
  EXPECT_DOUBLE_EQ(correlation_coefficient(flat, x), 0.0);
}

TEST(Correlation, ScaleInvarianceOfCoefficient) {
  const auto a = random_vec(32, 17);
  const auto b = random_vec(32, 18);
  const double c1 = correlation_coefficient(a, b);
  const double c2 = correlation_coefficient(scale(a, 10.0), offset(b, 5.0));
  EXPECT_NEAR(c1, c2, 1e-12);
}

}  // namespace
}  // namespace msbist::dsp
