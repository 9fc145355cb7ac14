// circuit::BatchTransient + production::run_batch_lockstep: lockstep
// waveforms must match one-die-at-a-time sparse transients (bitwise for
// the pivot-defining variant, < 1e-9 relative for the rest), per-lane
// failures must stay in their lane, and topology-contract violations
// must be rejected up front.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "circuit/batch_transient.h"
#include "circuit/elements.h"
#include "circuit/netlist.h"
#include "circuit/transient.h"
#include "core/error.h"
#include "production/batch.h"

namespace msbist::circuit {
namespace {

constexpr std::size_t kCells = 12;

/// The sparse-backend test's bus-fed RC macro array, parameterized the
/// Monte-Carlo way: same topology every time, element values scaled by a
/// per-variant factor.
void build_macro_array(Netlist& n, double r_scale, double c_scale,
                       double amp_scale) {
  const NodeId stim = n.node("stim");
  const NodeId bus = n.node("bus");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(
      stim, kGround, std::make_shared<SineWave>(2.5, 2.5 * amp_scale, 50e3));
  n.name_last("VSTIM");
  n.add<Resistor>(stim, bus, 100.0 * r_scale);
  n.add<Resistor>(bus, out, 1e3 * r_scale);
  n.add<Resistor>(out, kGround, 10e3 * r_scale);
  n.add<Capacitor>(out, kGround, 10e-9 * c_scale);
  for (std::size_t i = 0; i < kCells; ++i) {
    const NodeId cell = n.node("cell" + std::to_string(i));
    n.add<Resistor>(bus, cell,
                    (1e3 + 10.0 * static_cast<double>(i)) * r_scale);
    n.add<Capacitor>(cell, kGround,
                     (1e-9 + 1e-11 * static_cast<double>(i)) * c_scale);
  }
}

double variant_scale(std::size_t v, double step) {
  return 1.0 + step * static_cast<double>(v);
}

BatchTransientOptions array_options() {
  BatchTransientOptions opts;
  opts.dt = 100e-9;
  opts.t_stop = 10e-6;
  return opts;
}

double max_rel_diff(const WaveformView& a, const WaveformView& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-12});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

TEST(BatchTransient, LockstepMatchesScalarSparseTransients) {
  constexpr std::size_t kVariants = 5;
  std::vector<std::unique_ptr<Netlist>> nets;
  std::vector<Netlist*> variants;
  for (std::size_t v = 0; v < kVariants; ++v) {
    nets.push_back(std::make_unique<Netlist>());
    build_macro_array(*nets.back(), variant_scale(v, 0.03),
                      variant_scale(v, 0.02), variant_scale(v, 0.01));
    variants.push_back(nets.back().get());
  }
  const BatchTransientOptions opts = array_options();
  const BatchTransientReport report = BatchTransient(opts).run(variants);

  ASSERT_EQ(report.variants.size(), kVariants);
  EXPECT_EQ(report.stats.symbolic_analyses, 1u);
  EXPECT_EQ(report.stats.failed_variants, 0u);
  EXPECT_EQ(report.stats.variants, kVariants);

  for (std::size_t v = 0; v < kVariants; ++v) {
    ASSERT_TRUE(report.variants[v].ok()) << "variant " << v;
    Netlist scalar_net;
    build_macro_array(scalar_net, variant_scale(v, 0.03),
                      variant_scale(v, 0.02), variant_scale(v, 0.01));
    TransientOptions scalar_opts;
    scalar_opts.dt = opts.dt;
    scalar_opts.t_stop = opts.t_stop;
    const TransientResult scalar = transient(scalar_net, scalar_opts);
    const TransientResult& lane = *report.variants[v].result;
    if (v == 0) {
      // Variant 0 defines the shared pivot sequence, so its lane replays
      // the exact arithmetic of its own scalar factorization: bitwise.
      EXPECT_EQ(lane.voltage("out"), scalar.voltage("out"));
      EXPECT_EQ(lane.voltage("bus"), scalar.voltage("bus"));
      EXPECT_EQ(lane.current("VSTIM"), scalar.current("VSTIM"));
    } else {
      // Other lanes reuse variant 0's pivot order where their own scalar
      // factorization may pivot differently: the documented < 1e-9
      // relative gate for a different elimination order.
      EXPECT_LT(max_rel_diff(lane.voltage("out"), scalar.voltage("out")),
                1e-9)
          << "variant " << v;
      EXPECT_LT(max_rel_diff(lane.current("VSTIM"), scalar.current("VSTIM")),
                1e-9)
          << "variant " << v;
    }
  }
}

TEST(BatchTransient, SeedFailureStaysInItsLane) {
  // Lane 2's source amplitude is pushed to the edge of double range, so
  // its DC seed solve overflows; the other lanes must finish untouched.
  constexpr std::size_t kVariants = 4;
  std::vector<std::unique_ptr<Netlist>> nets;
  std::vector<Netlist*> variants;
  for (std::size_t v = 0; v < kVariants; ++v) {
    nets.push_back(std::make_unique<Netlist>());
    build_macro_array(*nets.back(), 1.0, 1.0, 1.0);
    variants.push_back(nets.back().get());
  }
  // Rebuild lane 2 with the same topology but pathological values: a
  // near-double-range DC offset into a micro-ohm feed resistor drives
  // the source branch current past double range in the seed solve.
  nets[2] = std::make_unique<Netlist>();
  {
    Netlist& n = *nets[2];
    const NodeId stim = n.node("stim");
    const NodeId bus = n.node("bus");
    const NodeId out = n.node("out");
    n.add<VoltageSource>(stim, kGround,
                         std::make_shared<SineWave>(1e308, 1.0, 50e3));
    n.name_last("VSTIM");
    n.add<Resistor>(stim, bus, 1e-4);
    n.add<Resistor>(bus, out, 1e3);
    n.add<Resistor>(out, kGround, 10e3);
    n.add<Capacitor>(out, kGround, 10e-9);
    for (std::size_t i = 0; i < kCells; ++i) {
      const NodeId cell = n.node("cell" + std::to_string(i));
      n.add<Resistor>(bus, cell, 1e3 + 10.0 * static_cast<double>(i));
      n.add<Capacitor>(cell, kGround, 1e-9 + 1e-11 * static_cast<double>(i));
    }
    variants[2] = nets[2].get();
  }
  BatchTransientOptions opts = array_options();
  opts.newton.damping_retries = 0;
  const BatchTransientReport report = BatchTransient(opts).run(variants);
  ASSERT_EQ(report.variants.size(), kVariants);
  EXPECT_EQ(report.stats.failed_variants, 1u);
  for (std::size_t v = 0; v < kVariants; ++v) {
    if (v == 2) {
      ASSERT_FALSE(report.variants[v].ok());
      EXPECT_FALSE(report.variants[v].result.has_value());  // no result
      EXPECT_EQ(report.variants[v].failure->analysis, "batch_transient/seed");
    } else {
      ASSERT_TRUE(report.variants[v].ok()) << "variant " << v;
      // Healthy lanes produce finite waveforms end to end.
      for (double x : report.variants[v].result->voltage("out")) {
        ASSERT_TRUE(std::isfinite(x));
      }
    }
  }
}

TEST(BatchTransient, LanesShareOneLayout) {
  constexpr std::size_t kVariants = 3;
  std::vector<std::unique_ptr<Netlist>> nets;
  std::vector<Netlist*> variants;
  for (std::size_t v = 0; v < kVariants; ++v) {
    nets.push_back(std::make_unique<Netlist>());
    build_macro_array(*nets.back(), variant_scale(v, 0.05), 1.0, 1.0);
    variants.push_back(nets.back().get());
  }
  const BatchTransientReport report =
      BatchTransient(array_options()).run(variants);
  ASSERT_TRUE(report.variants[0].ok());
  const TransientResult& first = *report.variants[0].result;
  EXPECT_EQ(first.samples(), report.stats.steps + 1);
  EXPECT_EQ(first.layout()->unknowns, report.stats.unknowns);
  for (std::size_t v = 1; v < kVariants; ++v) {
    ASSERT_TRUE(report.variants[v].ok()) << "variant " << v;
    const TransientResult& lane = *report.variants[v].result;
    // One layout object: the time grid and the name tables are shared,
    // not copied per lane.
    EXPECT_EQ(lane.layout().get(), first.layout().get());
    EXPECT_EQ(&lane.time(), &first.time());
    EXPECT_EQ(&lane.node_names(), &first.node_names());
    EXPECT_EQ(&lane.branch_names(), &first.branch_names());
    // ...while each lane's samples are its own.
    EXPECT_NE(lane.voltage("out").back(), first.voltage("out").back());
  }
}

TEST(BatchTransient, RenamedBranchIsRejected) {
  Netlist a;
  Netlist b;
  build_macro_array(a, 1.0, 1.0, 1.0);
  build_macro_array(b, 1.1, 1.0, 1.0);
  b.elements()[0]->set_name("VOTHER");
  std::vector<Netlist*> variants{&a, &b};
  EXPECT_THROW(BatchTransient(array_options()).run(variants),
               std::invalid_argument);
}

TEST(BatchTransient, MismatchedTopologyIsRejected) {
  Netlist a;
  Netlist b;
  build_macro_array(a, 1.0, 1.0, 1.0);
  build_macro_array(b, 1.1, 1.0, 1.0);
  b.add<Resistor>(b.find_node("bus"), kGround, 1e6);  // extra element
  std::vector<Netlist*> variants{&a, &b};
  EXPECT_THROW(BatchTransient(array_options()).run(variants),
               std::invalid_argument);
}

TEST(BatchTransient, NonlinearVariantIsRejected) {
  Netlist a;
  build_macro_array(a, 1.0, 1.0, 1.0);
  a.add<VoltageSwitch>(a.find_node("out"), kGround, a.find_node("out"),
                       kGround, /*threshold=*/2.5, /*r_on=*/1.0,
                       /*r_off=*/1e9);
  std::vector<Netlist*> variants{&a};
  EXPECT_THROW(BatchTransient(array_options()).run(variants),
               std::invalid_argument);
}

TEST(BatchTransient, SingularPopulationIsBatchLevelTypedError) {
  // Two sources fighting over one node in every lane: singular even under
  // private re-pivoting, so the shared factorization raises the same
  // typed error the scalar solver would.
  auto build = [](Netlist& n, double v) {
    const NodeId a = n.node("a");
    n.add<VoltageSource>(a, kGround, 1.0 * v);
    n.add<VoltageSource>(a, kGround, 2.0 * v);
    n.add<Resistor>(a, kGround, 1e3);
  };
  Netlist n0;
  Netlist n1;
  build(n0, 1.0);
  build(n1, 1.5);
  std::vector<Netlist*> variants{&n0, &n1};
  BatchTransientOptions opts = array_options();
  opts.erc = false;
  opts.use_initial_conditions = true;  // skip the (also singular) DC seed
  EXPECT_THROW(BatchTransient(opts).run(variants), core::SingularMatrixError);
}

}  // namespace
}  // namespace msbist::circuit

namespace msbist::production {
namespace {

using circuit::Capacitor;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Resistor;
using circuit::VoltageSource;

/// Seed-derived RC time constant: every die charges the same node through
/// a slightly different resistor.
void build_die(const DieSpec& spec, Netlist& n) {
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  // Map the seed into a +/-10% spread around 1 kOhm.
  const double unit =
      static_cast<double>(spec.seed % 1000u) / 999.0;  // [0, 1]
  n.add<VoltageSource>(in, kGround, 5.0);
  n.name_last("VDD");
  n.add<Resistor>(in, out, 1e3 * (0.9 + 0.2 * unit));
  n.add<Capacitor>(out, kGround, 100e-9);
}

TEST(RunBatchLockstep, ScreensAPopulationLikeRunBatch) {
  std::vector<DieSpec> population;
  for (std::size_t i = 0; i < 6; ++i) {
    DieSpec d;
    d.seed = device_seed(2026, i);
    d.label = "die " + std::to_string(i + 1);
    population.push_back(d);
  }

  LockstepPlan plan;
  plan.build = build_die;
  plan.transient.dt = 5e-6;
  plan.transient.t_stop = 1e-3;
  plan.evaluate = [](const DieSpec&, const circuit::TransientResult& tr) {
    // After ~2 time constants every healthy die sits well above 4 V.
    const double final_v = tr.voltage("out").back();
    return final_v > 4.0
               ? core::Outcome::ok()
               : core::Outcome::fail("out only reached " +
                                     std::to_string(final_v) + " V");
  };

  const BatchReport report = run_batch_lockstep(population, plan);
  ASSERT_EQ(report.devices.size(), population.size());
  EXPECT_EQ(report.passed, population.size());
  EXPECT_EQ(report.degraded_count, 0u);
  // Slot order and identity follow the population, like run_batch.
  for (std::size_t i = 0; i < population.size(); ++i) {
    EXPECT_EQ(report.devices[i].index, i);
    EXPECT_EQ(report.devices[i].seed, population[i].seed);
    EXPECT_EQ(report.devices[i].label, population[i].label);
  }
}

TEST(RunBatchLockstep, EvaluateExceptionDegradesOnlyThatDie) {
  std::vector<DieSpec> population;
  for (std::size_t i = 0; i < 3; ++i) {
    DieSpec d;
    d.seed = device_seed(7, i);
    d.label = "die " + std::to_string(i + 1);
    population.push_back(d);
  }
  LockstepPlan plan;
  plan.build = build_die;
  plan.transient.dt = 5e-6;
  plan.transient.t_stop = 200e-6;
  plan.evaluate = [&](const DieSpec& spec,
                      const circuit::TransientResult&) -> core::Outcome {
    if (spec.seed == population[1].seed) {
      throw std::runtime_error("tester glitch");
    }
    return core::Outcome::ok();
  };
  const BatchReport report = run_batch_lockstep(population, plan);
  ASSERT_EQ(report.devices.size(), 3u);
  EXPECT_EQ(report.passed, 2u);
  EXPECT_EQ(report.degraded_count, 1u);
  EXPECT_TRUE(report.devices[1].degraded);
  ASSERT_EQ(report.devices[1].failures.size(), 1u);
  EXPECT_EQ(report.devices[1].failures[0].code, core::ErrorCode::kInternal);
  EXPECT_EQ(report.devices[1].failures[0].analysis,
            "production/lockstep_evaluate");
}

}  // namespace
}  // namespace msbist::production
