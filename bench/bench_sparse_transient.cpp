// The sparse MNA path on two transient workloads, plus a closed-form
// agreement check.
//
// BM_MacroArrayTransient is a bus-fed RC macro array — the topology
// family the collapse bench and the sparse-backend tests share — sized
// to 98 MNA unknowns (94 cells + stim/bus/out + one source branch): a
// constant matrix factored once, then 500 forward/back substitutions.
// BM_Circuit2Transient is the fault campaign's kernel: one golden
// Figure 4 circuit-2 run (27 unknowns, nonlinear, a pivot replay per
// Newton iteration). CI gates both timings through tools/bench-compare.py.
//
// Before the micro-benchmarks, main prints how far a single-RC step
// response lies from the exact discrete backward-Euler and trapezoidal
// recurrences (gate: <= 1e-12 relative; tests/sparse_backend_test.cpp
// asserts the same oracle on a 3-stage ladder too).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/elements.h"
#include "circuit/netlist.h"
#include "circuit/solver.h"
#include "circuit/transient.h"
#include "circuit/waveform.h"
#include "tsrt/transient_test.h"

namespace {

using namespace msbist;
using namespace msbist::circuit;

constexpr std::size_t kCells = 94;  // 98 MNA unknowns

void build_macro_array(Netlist& n) {
  const NodeId stim = n.node("stim");
  const NodeId bus = n.node("bus");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(stim, kGround,
                       std::make_shared<SineWave>(2.5, 2.5, 50e3));
  n.add<Resistor>(stim, bus, 100.0);
  n.add<Resistor>(bus, out, 1e3);
  n.add<Resistor>(out, kGround, 10e3);
  n.add<Capacitor>(out, kGround, 10e-9);
  for (std::size_t i = 0; i < kCells; ++i) {
    const NodeId cell = n.node("cell" + std::to_string(i));
    n.add<Resistor>(bus, cell, 1e3 + 10.0 * static_cast<double>(i));
    n.add<Capacitor>(cell, kGround, 1e-9 + 1e-11 * static_cast<double>(i));
  }
}

TransientResult run_array() {
  Netlist n;
  build_macro_array(n);
  TransientOptions opts;
  opts.dt = 100e-9;
  opts.t_stop = 50e-6;  // 500 steps
  return transient(n, opts);
}

/// 0 at t <= 0, 1 V after: the DC point is all zeros.
class UnitStep final : public Waveform {
 public:
  double value(double t) const override { return t > 0.0 ? 1.0 : 0.0; }
};

/// Worst relative difference between a simulated single-RC step response
/// and the exact discrete recurrence of its integration method (gmin on
/// the capacitor node included).
double rc_recurrence_gap(Integration method) {
  constexpr double kR = 1e3, kC = 1e-6, kDt = 20e-6;
  constexpr std::size_t kSteps = 500;
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(in, kGround, std::make_shared<UnitStep>());
  n.add<Resistor>(in, out, kR);
  n.add<Capacitor>(out, kGround, kC);
  TransientOptions opts;
  opts.dt = kDt;
  opts.t_stop = kDt * kSteps;
  opts.method = method;
  const TransientResult res = transient(n, opts);
  const WaveformView v = res.voltage("out");

  const double g = 1.0 / kR;
  const double gmin = opts.newton.gmin;
  const bool trap = method == Integration::kTrapezoidal;
  const double geq = (trap ? 2.0 : 1.0) * kC / kDt;
  double prev = 0.0, hist = 0.0, worst = 0.0;
  for (std::size_t k = 1; k <= kSteps && k < v.size(); ++k) {
    const double next = (g + geq * prev + hist) / (g + gmin + geq);
    if (trap) hist = geq * (next - prev) - hist;
    prev = next;
    worst = std::max(worst, std::abs(v[k] - next) / std::abs(next));
  }
  return worst;
}

void print_closed_form_agreement() {
  std::printf(
      "single RC step vs its exact discrete recurrence, 500 steps:\n"
      "  backward Euler max relative difference %.3g (gate: <= 1e-12)\n"
      "  trapezoidal    max relative difference %.3g (gate: <= 1e-12)\n\n",
      rc_recurrence_gap(Integration::kBackwardEuler),
      rc_recurrence_gap(Integration::kTrapezoidal));
}

void BM_MacroArrayTransient(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_array());
  }
  state.counters["unknowns"] = static_cast<double>(kCells + 4);
  state.counters["steps"] = 500;
}
BENCHMARK(BM_MacroArrayTransient)->Unit(benchmark::kMillisecond);

/// The fault-campaign kernel: one golden Figure 4 circuit-2 run (SC
/// integrator + comparator, 27 MNA unknowns, backward Euler, 8000 steps)
/// including stimulus generation and correlation.
void BM_Circuit2Transient(benchmark::State& state) {
  const tsrt::CircuitKind kind = tsrt::CircuitKind::kScIntegratorComparator;
  const tsrt::TsrtOptions opts = tsrt::paper_options(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsrt::run_transient_test(kind, std::nullopt, opts));
  }
}
BENCHMARK(BM_Circuit2Transient)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_closed_form_agreement();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
