// E6 — Figure 4: "Detection instances for faulty circuits".
//
// Paper: the transient-response technique applied to three 5 um CMOS
// circuits — OP1 (16 faults, PRBS 15 bits x 250 us x 0/5 V), the SC
// integrator + comparator (12 faults) and the SC integrator alone
// (12 faults; "detection instances of only 70% for some faults").
// Figure 4 plots % of detection instances per faulty circuit, roughly
// 60..100 %.
//
// Circuit 1 and circuit 2 run approach 1 (stimulus/response correlation);
// circuit 3 runs approach 2 (state-space impulse-response comparison via
// the ARX fit). The dynamic-Idd column is the complementary signature of
// the paper's refs [10, 11]; faults invisible in the voltage domain
// (SA0 on the bias line leaves the closed-loop transfer intact) are
// caught there.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "core/report.h"
#include "faults/universe.h"
#include "tsrt/impulse_compare.h"
#include "tsrt/pole_compare.h"
#include "tsrt/transient_test.h"

namespace {

using namespace msbist;
using namespace msbist::tsrt;

void run_correlation_circuit(CircuitKind kind,
                             const std::vector<faults::FaultSpec>& universe) {
  const TsrtOptions opts = paper_options(kind);
  const TsrtRun golden = run_transient_test(kind, std::nullopt, opts);
  core::Table table({"fault", "corr det [%]", "Idd det [%]", "combined [%]"});
  double lo = 100.0, hi = 0.0;
  std::size_t detected = 0;
  for (const auto& f : universe) {
    const TsrtRun faulty = run_transient_test(kind, f, opts);
    const double corr = correlation_detection_percent(golden, faulty);
    const double idd = idd_detection_percent(golden, faulty);
    const double comb = combined_detection_percent(golden, faulty);
    lo = std::min(lo, comb);
    hi = std::max(hi, comb);
    if (is_detected(comb)) ++detected;
    table.add_row({f.label, core::Table::num(corr, 1), core::Table::num(idd, 1),
                   core::Table::num(comb, 1)});
  }
  std::printf("%s — approach 1 (correlation) + dynamic Idd\n%s",
              circuit_name(kind).c_str(), table.to_string().c_str());
  std::printf("detected %zu/%zu faults; combined detection range %.1f..%.1f %%\n\n",
              detected, universe.size(), lo, hi);
}

void run_impulse_circuit3() {
  const CircuitKind kind = CircuitKind::kScIntegratorAlone;
  const TsrtOptions opts = paper_options(kind);
  const TsrtRun golden = run_transient_test(kind, std::nullopt, opts);
  const ArxFit gfit =
      fit_sc_cycles(golden.stimulus, golden.response, golden.dt, kScCycleSeconds, 2.5);
  std::printf("%s — approach 2 (impulse-response / state-space)\n",
              circuit_name(kind).c_str());
  std::printf("golden fit: H(z) = %.4f z^-1 / (1 %+.4f z^-1)   [design: -0.1471/(1 - z^-1) bounded]\n",
              gfit.b, -gfit.a);
  core::Table table({"fault", "impulse det [%]", "Idd det [%]", "fitted a", "fitted b"});
  double lo = 100.0, hi = 0.0;
  std::size_t detected = 0;
  for (const auto& f : faults::sc_fault_universe()) {
    const TsrtRun faulty = run_transient_test(kind, f, opts);
    const ArxFit ffit =
        fit_sc_cycles(faulty.stimulus, faulty.response, faulty.dt, kScCycleSeconds, 2.5);
    const double imp = impulse_detection_percent(gfit, ffit);
    const double idd = idd_detection_percent(golden, faulty);
    const double comb = std::max(imp, idd);
    lo = std::min(lo, comb);
    hi = std::max(hi, comb);
    if (is_detected(comb)) ++detected;
    // A dead output fits b to 0.000 and its pole a to roundoff residue:
    // that cell is noise, not data.
    const bool dead_output = std::abs(ffit.b) < 5e-4;
    table.add_row({f.label, core::Table::num(imp, 1), core::Table::num(idd, 1),
                   dead_output ? "n/a" : core::Table::num(ffit.a, 3),
                   core::Table::num(ffit.b, 3)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("detected %zu/12 faults; combined detection range %.1f..%.1f %%\n",
              detected, lo, hi);
  std::printf("(paper: circuit 3 'shows detection instances of only 70%% for some "
              "faults')\n\n");
}

void run_pole_circuit1() {
  std::printf("circuit 1 (OP1, open loop) — approach 2 via pole extraction\n");
  const PoleSignature golden = extract_pole_signature(std::nullopt);
  std::printf("golden model: dc gain %.0f, dominant poles", golden.dc_gain);
  for (const auto& pp : golden.poles) {
    std::printf(" (%.3g%+.3gj)", pp.real(), pp.imag());
  }
  std::printf(" rad/s\n");
  core::Table table({"fault", "pole det [%]", "extracted dc gain"});
  double lo = 100.0, hi = 0.0;
  for (const auto& f : faults::op1_fault_universe()) {
    const PoleSignature sig = extract_pole_signature(f);
    const double det = pole_detection_percent(golden, sig);
    lo = std::min(lo, det);
    hi = std::max(hi, det);
    table.add_row({f.label, core::Table::num(det, 1),
                   core::Table::num(sig.dc_gain, 1)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("detection range %.1f..%.1f %% — open loop, every fault collapses\n"
              "the extracted model (closed-loop feedback masked some of these in\n"
              "the correlation view above)\n\n",
              lo, hi);
}

void print_reproduction() {
  std::printf("E6: Figure 4 — %% of detection instances per faulty circuit\n\n");
  run_correlation_circuit(CircuitKind::kOp1Follower, faults::op1_fault_universe());
  run_pole_circuit1();
  run_correlation_circuit(CircuitKind::kScIntegratorComparator,
                          faults::sc_fault_universe());
  run_impulse_circuit3();
}

void BM_Circuit1FaultRun(benchmark::State& state) {
  const TsrtOptions opts = paper_options(CircuitKind::kOp1Follower);
  const auto fault = faults::FaultSpec::stuck_at(7, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_transient_test(CircuitKind::kOp1Follower, fault, opts));
  }
}
BENCHMARK(BM_Circuit1FaultRun);

void BM_Circuit3FaultRunWithFit(benchmark::State& state) {
  const TsrtOptions opts = paper_options(CircuitKind::kScIntegratorAlone);
  const auto fault = faults::FaultSpec::bridge(6, 7);
  for (auto _ : state) {
    const TsrtRun run =
        run_transient_test(CircuitKind::kScIntegratorAlone, fault, opts);
    benchmark::DoNotOptimize(
        fit_sc_cycles(run.stimulus, run.response, run.dt, kScCycleSeconds, 2.5));
  }
}
BENCHMARK(BM_Circuit3FaultRunWithFit);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
