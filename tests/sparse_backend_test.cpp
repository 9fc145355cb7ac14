// Integration tests for the sparse MNA path: transient waveforms against
// closed-form oracles (the exact discrete backward-Euler / trapezoidal
// recurrences, and the continuous step response at the method's order),
// symbolic and pivot reuse across Newton steps and re-binds at every
// system size, the write-sequence contract behind the stamp-to-slot map,
// and the rescue ladder running on the sparse engine.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/dc.h"
#include "circuit/elements.h"
#include "circuit/netlist.h"
#include "circuit/solver.h"
#include "circuit/transient.h"
#include "circuit/workspace.h"
#include "core/error.h"

namespace msbist::circuit {
namespace {

constexpr std::size_t kCells = 47;

/// Bus-fed RC macro array: stim + bus + out + kCells cell nodes + one
/// source branch = 51 MNA unknowns at kCells = 47, the same topology
/// family as the collapse bench. Fully linear, so the fixed-dt transient
/// matrix is constant.
void build_macro_array(Netlist& n) {
  const NodeId stim = n.node("stim");
  const NodeId bus = n.node("bus");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(stim, kGround,
                       std::make_shared<SineWave>(2.5, 2.5, 50e3));
  n.name_last("VSTIM");
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

/// 0 at t <= 0 (so the DC operating point is all zeros), `level` after.
class StepWave final : public Waveform {
 public:
  explicit StepWave(double level) : level_(level) {}
  double value(double t) const override { return t > 0.0 ? level_ : 0.0; }

 private:
  double level_;
};

/// RC ladder driven by a voltage step: in -R[0]- n1 -R[1]- n2 ..., with
/// C[j] from node n(j+1) to ground. One stage is the single RC.
struct Ladder {
  double step = 1.0;
  std::vector<double> r;
  std::vector<double> c;
};

const Ladder kSingleRc{1.0, {1e3}, {1e-6}};  // tau = 1 ms
const Ladder kThreeStage{2.0, {1e3, 2.2e3, 4.7e3}, {1e-6, 0.47e-6, 0.22e-6}};

std::string stage_node(std::size_t j) { return "n" + std::to_string(j + 1); }

TransientResult simulate(const Ladder& lad, Integration method, double dt,
                         double t_stop, bool cache) {
  Netlist n;
  NodeId prev = n.node("in");
  n.add<VoltageSource>(prev, kGround, std::make_shared<StepWave>(lad.step));
  for (std::size_t j = 0; j < lad.r.size(); ++j) {
    const NodeId node = n.node(stage_node(j));
    n.add<Resistor>(prev, node, lad.r[j]);
    n.add<Capacitor>(node, kGround, lad.c[j]);
    prev = node;
  }
  TransientOptions opts;
  opts.dt = dt;
  opts.t_stop = t_stop;
  opts.method = method;
  opts.solver_cache = cache;
  return transient(n, opts);
}

/// The exact discrete recurrence the integration method defines for the
/// ladder, gmin on every node included: per step the tridiagonal system
///   (G + gmin I + Geq) v_k = b + Geq v_{k-1} + i_hist
/// solved by the Thomas algorithm, where Geq = C/h (BE) or 2C/h (trap)
/// and i_hist is the trapezoidal history current (zero for BE). Returns
/// [stage][sample], sample 0 being the all-zero operating point.
std::vector<std::vector<double>> recurrence(const Ladder& lad,
                                            Integration method, double dt,
                                            std::size_t steps, double gmin) {
  const std::size_t m = lad.r.size();
  const bool trap = method == Integration::kTrapezoidal;
  std::vector<double> g(m), geq(m), v(m, 0.0), i_hist(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    g[j] = 1.0 / lad.r[j];
    geq[j] = (trap ? 2.0 : 1.0) * lad.c[j] / dt;
  }
  std::vector<std::vector<double>> out(m, std::vector<double>(steps + 1, 0.0));
  std::vector<double> diag(m), rhs(m), upper(m);
  for (std::size_t k = 1; k <= steps; ++k) {
    for (std::size_t j = 0; j < m; ++j) {
      diag[j] = g[j] + (j + 1 < m ? g[j + 1] : 0.0) + gmin + geq[j];
      rhs[j] = (j == 0 ? g[0] * lad.step : 0.0) + geq[j] * v[j] + i_hist[j];
    }
    // Thomas forward sweep (off-diagonals are -g[j+1]) and back-substitution.
    for (std::size_t j = 0; j + 1 < m; ++j) {
      upper[j] = -g[j + 1] / diag[j];
      diag[j + 1] -= g[j + 1] * g[j + 1] / diag[j];
      rhs[j + 1] += g[j + 1] * rhs[j] / diag[j];
    }
    std::vector<double> next(m);
    next[m - 1] = rhs[m - 1] / diag[m - 1];
    for (std::size_t j = m - 1; j-- > 0;) {
      next[j] = rhs[j] / diag[j] - upper[j] * next[j + 1];
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (trap) i_hist[j] = geq[j] * (next[j] - v[j]) - i_hist[j];
      v[j] = next[j];
      out[j][k] = v[j];
    }
  }
  return out;
}

/// Worst per-sample relative difference (exact zeros must match exactly).
double max_rel_diff(const WaveformView& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (d == 0.0) continue;
    worst = std::max(worst, d / std::max(std::abs(a[i]), std::abs(b[i])));
  }
  return worst;
}

TEST(SparseBackend, RcStepsMatchExactDiscreteRecurrences) {
  const double gmin = NewtonOptions{}.gmin;
  for (const Ladder* lad : {&kSingleRc, &kThreeStage}) {
    for (const Integration method :
         {Integration::kBackwardEuler, Integration::kTrapezoidal}) {
      const double dt = 20e-6;
      const std::size_t steps = 400;
      const auto exact = recurrence(*lad, method, dt, steps, gmin);
      const TransientResult cached =
          simulate(*lad, method, dt, dt * steps, /*cache=*/true);
      const TransientResult uncached =
          simulate(*lad, method, dt, dt * steps, /*cache=*/false);
      for (std::size_t j = 0; j < lad->r.size(); ++j) {
        const std::string node = stage_node(j);
        SCOPED_TRACE(std::to_string(lad->r.size()) + "-stage " +
                     (method == Integration::kTrapezoidal ? "trap " : "BE ") +
                     node);
        ASSERT_EQ(cached.voltage(node).size(), steps + 1);
        EXPECT_LE(max_rel_diff(cached.voltage(node), exact[j]), 1e-12);
        EXPECT_LE(max_rel_diff(uncached.voltage(node), exact[j]), 1e-12);
        EXPECT_EQ(cached.voltage(node), uncached.voltage(node));
      }
      // Sanity: the last stage charged most of the way to the step.
      EXPECT_GT(exact.back().back(), 0.5 * lad->step);
    }
  }
}

TEST(SparseBackend, RcStepErrorShrinksAtIntegrationOrder) {
  // Error of the single RC against the continuous step response
  // 1 - e^{-t/RC} over five time constants, at dt, dt/2, dt/4. Backward
  // Euler is first order: ~2x per halving. The trapezoidal rule is second
  // order, ~4x per halving — against the step delayed by dt/2: the
  // capacitor's history current starts at its pre-step value (zero), so
  // the first trapezoid averages the two sides of the jump, which to
  // second order places the edge mid-step.
  const double tau = kSingleRc.r[0] * kSingleRc.c[0];
  const double t_stop = 5.0 * tau;
  auto max_error = [&](Integration method, double dt) {
    const double delay =
        method == Integration::kTrapezoidal ? dt / 2.0 : 0.0;
    const TransientResult r = simulate(kSingleRc, method, dt, t_stop, true);
    const WaveformView v = r.voltage(stage_node(0));
    double worst = 0.0;
    for (std::size_t k = 1; k < v.size(); ++k) {
      const double t = r.time()[k];
      const double exact = kSingleRc.step * (1.0 - std::exp(-(t - delay) / tau));
      worst = std::max(worst, std::abs(v[k] - exact));
    }
    return worst;
  };
  const double dt = tau / 20.0;
  for (const Integration method :
       {Integration::kBackwardEuler, Integration::kTrapezoidal}) {
    const double order_ratio =
        method == Integration::kTrapezoidal ? 4.0 : 2.0;
    const double e1 = max_error(method, dt);
    const double e2 = max_error(method, dt / 2.0);
    const double e4 = max_error(method, dt / 4.0);
    SCOPED_TRACE(method == Integration::kTrapezoidal ? "trap" : "BE");
    EXPECT_NEAR(e1 / e2, order_ratio, 0.1 * order_ratio);
    EXPECT_NEAR(e2 / e4, order_ratio, 0.1 * order_ratio);
    EXPECT_LT(e4, 0.01 * kSingleRc.step);
  }
}

TEST(SparseBackend, SmallSystemsShareTheSparseEngine) {
  // There is one engine at every size: a 3-unknown nonlinear system
  // replays its pivot sequence exactly as the 52-unknown array does.
  auto replays = [](Netlist& n, NodeId out) {
    const NodeId tap = n.node("tap");
    n.add<VoltageSwitch>(out, tap, out, kGround, /*threshold=*/1.0,
                         /*r_on=*/10.0, /*r_off=*/1e6);
    n.add<Resistor>(tap, kGround, 1e3);
    const std::size_t unknowns = n.assign_unknowns();
    SolverWorkspace ws;
    solve_mna(n, StampContext{}, unknowns, {}, NewtonOptions{}, &ws);
    EXPECT_FALSE(ws.matrix_fully_static());
    EXPECT_GE(ws.stats().assemblies, 2u);
    EXPECT_EQ(ws.stats().binds, 1u);
    return ws.stats().sparse_refactors + 1 == ws.stats().assemblies;
  };
  {
    Netlist n;
    const NodeId out = n.node("out");
    n.add<VoltageSource>(out, kGround, 2.0);
    EXPECT_TRUE(replays(n, out));
  }
  {
    Netlist n;
    build_macro_array(n);
    EXPECT_TRUE(replays(n, n.find_node("out")));
  }
}

TEST(SparseBackend, FullyStaticSystemReusesSparseFactorization) {
  Netlist n;
  build_macro_array(n);
  const std::size_t unknowns = n.assign_unknowns();
  SolverWorkspace ws;
  StampContext ctx;
  ctx.mode = StampContext::Mode::kTransient;
  ctx.dt = 100e-9;
  NewtonOptions opts;
  std::vector<double> guess(unknowns, 0.0);
  for (int step = 0; step < 5; ++step) {
    ctx.t = 100e-9 * (step + 1);
    guess = solve_mna(n, ctx, unknowns, guess, opts, &ws);
  }
  EXPECT_TRUE(ws.matrix_fully_static());
  EXPECT_EQ(ws.stats().lu_factorizations, 1u);
  EXPECT_EQ(ws.stats().lu_reuses, 4u);
  EXPECT_EQ(ws.stats().sparse_refactors, 0u);
}

TEST(SparseBackend, NonlinearNewtonReplaysPivotsInsteadOfRefactoring) {
  // A stable voltage-controlled switch makes the matrix dynamic: the
  // first iteration runs the pivoting factor(), every later iteration
  // replays the stored schedule (sparse_refactors counts them).
  Netlist n;
  build_macro_array(n);
  const NodeId out = n.find_node("out");
  const NodeId tap = n.node("tap");
  n.add<VoltageSwitch>(out, tap, out, kGround, /*threshold=*/1.0,
                       /*r_on=*/10.0, /*r_off=*/1e6);
  n.add<Resistor>(tap, kGround, 1e3);
  const std::size_t unknowns = n.assign_unknowns();
  SolverWorkspace ws;
  StampContext ctx;
  NewtonOptions opts;
  solve_mna(n, ctx, unknowns, {}, opts, &ws);
  EXPECT_FALSE(ws.matrix_fully_static());
  EXPECT_GE(ws.stats().assemblies, 2u);
  // One pivoting factorization, the rest schedule replays.
  EXPECT_GE(ws.stats().sparse_refactors, ws.stats().assemblies - 1);
}

TEST(SparseBackend, RescueLadderRunsUnchangedOnSparsePath) {
  // Bistable comparator: no consistent DC state, so the whole ladder
  // (gmin ramp re-binds included) runs and exhausts with the typed
  // non-convergence verdict — and the gmin re-binds exercise symbolic
  // reuse across fingerprint changes.
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(in, kGround, 5.0);
  n.add<Resistor>(in, out, 1e3);
  n.add<VoltageSwitch>(out, kGround, out, kGround, /*threshold=*/2.5,
                       /*r_on=*/1.0, /*r_off=*/1e9);
  DcOptions opts;
  opts.newton.max_iterations = 60;
  opts.source_steps = 4;
  opts.rescue.max_gmin_steps = 2;
  core::ErrorCode code = core::ErrorCode::kNone;
  try {
    dc_operating_point(n, opts);
  } catch (const core::SolverError& e) {
    code = e.code();
  }
  EXPECT_EQ(code, core::ErrorCode::kNonConvergent);
}

TEST(SparseBackend, SingularSparseSystemClassifiesAsSingularMatrixError) {
  // Two voltage sources fighting over one node is structurally singular.
  // The sparse engine's runtime_error must classify as
  // core::SingularMatrixError, not a raw exception.
  Netlist n;
  const NodeId a = n.node("a");
  n.add<VoltageSource>(a, kGround, 1.0);
  n.add<VoltageSource>(a, kGround, 2.0);
  const std::size_t unknowns = n.assign_unknowns();
  NewtonOptions opts;
  StampContext ctx;
  EXPECT_THROW(solve_mna(n, ctx, unknowns, {}, opts), core::SingularMatrixError);
}

/// Breaks the Element contract on purpose: writes one matrix entry when
/// its node sits at or below 0.5 V and two above, so its write count
/// depends on the iterate (discovery reads 0 V).
class CountDriftElement final : public Element {
 public:
  CountDriftElement(NodeId node, bool more_when_high)
      : node_(node), more_when_high_(more_when_high) {}
  void stamp(Stamper& s, const StampContext& ctx) const override {
    const bool high = Stamper::voltage(ctx, node_) > 0.5;
    s.add(node_, node_, 1e-3);
    if (high == more_when_high_) s.add(node_, node_, 1e-3);
  }
  std::vector<NodeId> terminals() const override { return {node_}; }
  bool nonlinear() const override { return true; }

 private:
  NodeId node_;
  bool more_when_high_;
};

TEST(SparseBackend, WriteCountDriftIsALogicError) {
  // The slot map resolves writes by position, so an element whose write
  // sequence changes after discovery is a programming error — surfaced
  // as std::logic_error (never a silently misplaced stamp), in both
  // directions: more writes than discovered, and fewer.
  for (const bool more_when_high : {true, false}) {
    Netlist n;
    const NodeId a = n.node("a");
    const NodeId b = n.node("b");
    n.add<VoltageSource>(a, kGround, 1.0);
    n.add<Resistor>(a, b, 1e3);
    n.add<CountDriftElement>(b, more_when_high);
    const std::size_t unknowns = n.assign_unknowns();
    std::vector<double> guess(unknowns, 0.0);
    guess[static_cast<std::size_t>(b)] = 1.0;  // first iterate is "high"
    EXPECT_THROW(solve_mna(n, StampContext{}, unknowns, guess, NewtonOptions{}),
                 std::logic_error)
        << (more_when_high ? "extra write" : "missing write");
  }
}

}  // namespace
}  // namespace msbist::circuit
