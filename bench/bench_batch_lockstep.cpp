// Lockstep Monte-Carlo batch transients vs one-scalar-transient-per-die.
//
// The workload screens a 32-die population of a 98-unknown macro array
// with per-die R/C/drive spreads: a resistive cell bank hanging off the
// test bus with RC poles on every 16th cell and on the output — the
// short settling screen a production insertion actually runs (a few
// dozen steps per die), not a long waveform capture. The scalar
// reference fabricates each die and runs its own sparse transient
// through run_batch's DeviceTestFn path — 32 symbolic analyses, 32
// factorizations, 32 independent marches. The lockstep path
// (production::run_batch_lockstep over circuit::BatchTransient) performs
// ONE symbolic analysis, replays its pivot schedule across all dies'
// entry-major SoA value slabs, and batches the DC seeds and every march
// step into vectorized solves — so the per-die setup cost that dominates
// a short screen is paid once, not 32 times.
//
// The acceptance gate for PR 7 is >= 2x per-die throughput at N = 32,
// shown by the printed comparison (best of 3 runs per path); CI gates
// the individual timings via tools/bench-compare.py. Verdicts are
// cross-checked die-for-die: each lockstep lane is bit-identical to a
// scalar transient of its netlist, so both paths must agree exactly.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "circuit/elements.h"
#include "circuit/netlist.h"
#include "circuit/transient.h"
#include "production/batch.h"

namespace {

using namespace msbist;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;

constexpr std::size_t kDies = 32;
constexpr std::size_t kCells = 94;  // 98 MNA unknowns

/// Per-die parameter spread in [1 - amp, 1 + amp], deterministic in seed.
double spread(std::uint64_t seed, std::uint64_t salt, double amp) {
  const std::uint64_t h = (seed ^ salt) * 0x9E3779B97F4A7C15ull;
  const double u = static_cast<double>(h >> 11) /
                   static_cast<double>(1ull << 53);  // [0, 1)
  return 1.0 + amp * (2.0 * u - 1.0);
}

void build_die(const production::DieSpec& spec, Netlist& n) {
  const double r_scale = spread(spec.seed, 0x52, 0.05);
  const double c_scale = spread(spec.seed, 0x43, 0.05);
  const NodeId stim = n.node("stim");
  const NodeId bus = n.node("bus");
  const NodeId out = n.node("out");
  n.add<circuit::VoltageSource>(
      stim, kGround,
      std::make_shared<circuit::SineWave>(2.5, 2.5 * spread(spec.seed, 0x56, 0.02),
                                          50e3));
  n.add<circuit::Resistor>(stim, bus, 100.0 * r_scale);
  n.add<circuit::Resistor>(bus, out, 1e3 * r_scale);
  n.add<circuit::Resistor>(out, kGround, 10e3 * r_scale);
  n.add<circuit::Capacitor>(out, kGround, 10e-9 * c_scale);
  for (std::size_t i = 0; i < kCells; ++i) {
    const NodeId cell = n.node("cell" + std::to_string(i));
    n.add<circuit::Resistor>(bus, cell,
                             (1e3 + 10.0 * static_cast<double>(i)) * r_scale);
    if (i % 16 == 0) {
      n.add<circuit::Capacitor>(
          cell, kGround, (1e-9 + 1e-11 * static_cast<double>(i)) * c_scale);
    }
  }
}

circuit::BatchTransientOptions march_options() {
  circuit::BatchTransientOptions opts;
  opts.dt = 100e-9;
  opts.t_stop = 5e-6;  // 50-step settling screen
  return opts;
}

core::Outcome judge(const production::DieSpec&,
                    const circuit::TransientResult& r) {
  // Screen: the bus-fed output must actually swing.
  double lo = 1e300, hi = -1e300;
  for (double v : r.voltage("out")) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi - lo > 0.5) return core::Outcome::ok("");
  return core::Outcome::fail("output swing " + std::to_string(hi - lo) + " V");
}

std::vector<production::DieSpec> make_dies() {
  std::vector<production::DieSpec> dies(kDies);
  for (std::size_t i = 0; i < kDies; ++i) {
    dies[i].seed = 1000 + i;
    dies[i].label = "die" + std::to_string(i);
  }
  return dies;
}

production::BatchReport run_scalar(const std::vector<production::DieSpec>& dies) {
  const auto opts = march_options();
  const production::DeviceTestFn per_die =
      [&](const production::DieSpec& spec,
          const production::TestPlan&) -> production::DeviceOutcome {
    Netlist n;
    build_die(spec, n);
    circuit::TransientOptions t;
    t.dt = opts.dt;
    t.t_stop = opts.t_stop;
    t.newton = opts.newton;
    const circuit::TransientResult r = circuit::transient(n, t);
    production::DeviceOutcome out;
    out.seed = spec.seed;
    out.label = spec.label;
    out.outcome = judge(spec, r);
    if (out.outcome.pass && out.outcome.detail.empty()) {
      out.outcome.detail = "pass";
    }
    return out;
  };
  return production::run_batch(dies, production::TestPlan::bist_only(), 1,
                               per_die);
}

production::BatchReport run_lockstep(const std::vector<production::DieSpec>& dies) {
  production::LockstepPlan plan;
  plan.build = build_die;
  plan.transient = march_options();
  plan.evaluate = judge;
  return production::run_batch_lockstep(dies, plan);
}

void print_reproduction() {
  using clock = std::chrono::steady_clock;
  const auto dies = make_dies();

  // Best of 3 per path: a single cold run is at the mercy of the
  // scheduler; the minimum is the standard noise-resistant estimator.
  production::BatchReport scalar;
  production::BatchReport lockstep;
  double scalar_s = 1e300;
  double lock_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    scalar = run_scalar(dies);
    const auto t1 = clock::now();
    scalar_s = std::min(scalar_s, std::chrono::duration<double>(t1 - t0).count());
  }
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    lockstep = run_lockstep(dies);
    const auto t1 = clock::now();
    lock_s = std::min(lock_s, std::chrono::duration<double>(t1 - t0).count());
  }

  bool agree = scalar.devices.size() == lockstep.devices.size();
  std::size_t passes = 0;
  for (std::size_t i = 0; agree && i < scalar.devices.size(); ++i) {
    agree = scalar.devices[i].outcome.pass == lockstep.devices[i].outcome.pass;
    if (lockstep.devices[i].outcome.pass) ++passes;
  }
  std::printf(
      "lockstep vs scalar screen, %zu dies x %zu unknowns, 50 steps:\n"
      "  scalar %.1f ms (%.1f dies/s)   lockstep %.1f ms (%.1f dies/s)\n"
      "  per-die throughput gain %.2fx (gate: >= 2x)   verdicts agree: %s"
      " (%zu/%zu pass)\n\n",
      kDies, kCells + 4, scalar_s * 1e3,
      static_cast<double>(kDies) / scalar_s, lock_s * 1e3,
      static_cast<double>(kDies) / lock_s, scalar_s / lock_s,
      agree ? "yes" : "NO", passes, kDies);
}

void BM_Batch32_ScalarDies(benchmark::State& state) {
  const auto dies = make_dies();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_scalar(dies));
  }
  state.counters["dies"] = kDies;
}
BENCHMARK(BM_Batch32_ScalarDies)->Unit(benchmark::kMillisecond);

void BM_Batch32_Lockstep(benchmark::State& state) {
  const auto dies = make_dies();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_lockstep(dies));
  }
  state.counters["dies"] = kDies;
}
BENCHMARK(BM_Batch32_Lockstep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
