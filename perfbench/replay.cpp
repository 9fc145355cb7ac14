#include "replay.h"

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/testability.h"
#include "circuit/batch_transient.h"
#include "circuit/netlist.h"
#include "core/device.h"
#include "core/json.h"
#include "core/outcome.h"
#include "faults/campaign.h"
#include "faults/collapse.h"
#include "faults/universe.h"
#include "production/batch.h"
#include "tsrt/detector.h"
#include "tsrt/example_circuits.h"
#include "tsrt/transient_test.h"

namespace perfbench {

namespace {

namespace core = msbist::core;
namespace production = msbist::production;
namespace service = msbist::service;
namespace tsrt = msbist::tsrt;
namespace faults = msbist::faults;

const char* tier_span(msbist::bist::Tier t) {
  switch (t) {
    case msbist::bist::Tier::kAnalog: return "bist.tier.analog";
    case msbist::bist::Tier::kRamp: return "bist.tier.ramp";
    case msbist::bist::Tier::kDigital: return "bist.tier.digital";
    case msbist::bist::Tier::kCompressed: return "bist.tier.compressed";
  }
  return "bist.tier.unknown";
}

tsrt::CircuitKind circuit_kind(const std::string& name) {
  if (name == "op1_follower") return tsrt::CircuitKind::kOp1Follower;
  if (name == "sc_integrator_comparator") {
    return tsrt::CircuitKind::kScIntegratorComparator;
  }
  throw std::invalid_argument("replay: unknown circuit " + name);
}

std::vector<faults::FaultSpec> fault_universe(tsrt::CircuitKind kind) {
  return kind == tsrt::CircuitKind::kOp1Follower ? faults::op1_fault_universe()
                                                 : faults::sc_fault_universe();
}

/// production::test_device, one span per layer call. Covers the plans
/// the workloads send (no fault spot check).
production::DeviceOutcome traced_test_device(const production::DieSpec& spec,
                                             const production::TestPlan& plan,
                                             Tracer& t, std::uint64_t job) {
  if (plan.fault_spot_check) {
    throw std::invalid_argument("replay: fault_spot_check is not traced");
  }
  const auto t0 = Clock::now();
  Scope die_span(&t, "production.die", job);
  production::DeviceOutcome out;
  out.seed = spec.seed;
  out.label = spec.label;
  out.outcome = core::Outcome::ok();

  std::optional<core::Device> die;
  {
    Scope s(&t, "core.device_build", job);
    die.emplace(spec.seed, spec.config);
  }

  out.tiers_run = plan.tiers;
  bool tiers_pass = true;
  for (msbist::bist::Tier tier : plan.tiers) {
    core::Outcome verdict;
    {
      Scope s(&t, tier_span(tier), job);
      verdict = die->bist().run_tier(tier, die->adc(), out.bist);
    }
    if (!verdict.pass) {
      tiers_pass = false;
      out.failed_tiers.push_back(tier);
    }
  }
  out.bist.pass = tiers_pass;
  if (!tiers_pass) {
    std::string detail = "BIST fail:";
    for (msbist::bist::Tier tier : out.failed_tiers) {
      detail += ' ';
      detail += msbist::bist::to_string(tier);
    }
    out.outcome &= core::Outcome::fail(std::move(detail));
  }
  if (!out.bist.failures.empty()) {
    out.degraded = true;
    out.failures.insert(out.failures.end(), out.bist.failures.begin(),
                        out.bist.failures.end());
  }

  if (plan.full_spec) {
    try {
      Scope s(&t, "adc.characterize", job);
      out.metrics = die->characterize();
      out.has_metrics = true;
      out.spec = out.metrics.outcome(plan.limits);
      if (!out.spec.pass) out.outcome &= core::Outcome::fail(out.spec.detail);
    } catch (const core::SolverError& e) {
      out.degraded = true;
      core::Failure f = e.failure();
      f.analysis = "production/full_spec";
      out.failures.push_back(std::move(f));
      out.spec = core::Outcome::fail("characterization aborted: " +
                                     std::string(e.what()));
      out.outcome &= out.spec;
    }
  }

  if (out.outcome.pass && out.outcome.detail.empty()) out.outcome.detail = "pass";
  out.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

ReplayResult replay_batch(const core::JobRequest& req, Tracer& t,
                          std::uint64_t job) {
  std::vector<production::DieSpec> population;
  {
    Scope s(&t, "production.population", job);
    production::BatchConfig cfg;
    cfg.device_count = req.device_count;
    cfg.batch_seed = req.batch_seed;
    population = production::make_population(cfg);
  }
  production::TestPlan plan;
  plan.tiers = service::parse_tiers(req.tiers);
  plan.full_spec = req.full_spec;
  plan.fault_spot_check = req.fault_spot_check;
  const production::DeviceTestFn test_fn =
      [&t, job](const production::DieSpec& spec, const production::TestPlan& p) {
        return traced_test_device(spec, p, t, job);
      };
  const production::BatchReport report =
      production::run_batch(population, plan, 1, test_fn);
  ReplayResult out;
  Scope s(&t, "core.report_json", job);
  out.report_json = core::to_json(report);
  return out;
}

ReplayResult replay_lockstep(const core::JobRequest& req, Tracer& t,
                             std::uint64_t job,
                             const service::DispatchResult& reference) {
  std::vector<production::DieSpec> population;
  {
    Scope s(&t, "production.population", job);
    population =
        service::lockstep_screen_population(req.device_count, req.batch_seed);
  }
  const production::LockstepPlan plan = service::lockstep_screen_plan();
  std::vector<msbist::circuit::Netlist> nets(population.size());
  std::vector<msbist::circuit::Netlist*> variants(population.size());
  for (std::size_t k = 0; k < population.size(); ++k) {
    Scope s(&t, "circuit.netlist_build", job);
    plan.build(population[k], nets[k]);
    variants[k] = &nets[k];
  }
  msbist::circuit::BatchTransientReport sim;
  {
    Scope s(&t, "circuit.march", job);
    sim = msbist::circuit::BatchTransient(plan.transient).run(variants);
  }

  ReplayResult out;
  const std::vector<production::DeviceOutcome>& ref = reference.batch->devices;
  for (std::size_t k = 0; k < population.size(); ++k) {
    const msbist::circuit::BatchVariantOutcome& lane = sim.variants[k];
    core::Outcome verdict = core::Outcome::fail("lockstep lane failed");
    if (lane.ok()) {
      Scope s(&t, "production.evaluate", job);
      verdict = plan.evaluate(population[k], *lane.result);
      if (verdict.pass && verdict.detail.empty()) verdict.detail = "pass";
    }
    if (k >= ref.size() || ref[k].outcome.pass != verdict.pass ||
        (lane.ok() && ref[k].outcome.detail != verdict.detail)) {
      ++out.verdict_mismatches;
    }
  }
  if (ref.size() != population.size()) ++out.verdict_mismatches;
  out.counts.steps = sim.stats.steps;
  out.counts.unknowns = sim.stats.unknowns;
  out.counts.pattern_nnz = sim.stats.pattern_nnz;
  out.counts.pivot_fallbacks = sim.stats.pivot_fallbacks;

  Scope s(&t, "core.report_json", job);
  out.counts.report_bytes = core::to_json(*reference.batch).size();
  return out;
}

ReplayResult replay_campaign(const core::JobRequest& req, Tracer& t,
                             std::uint64_t job) {
  const tsrt::CircuitKind kind = circuit_kind(req.circuit);
  const tsrt::ExampleCircuit circuit = tsrt::build_circuit(kind);
  std::vector<faults::FaultSpec> universe = fault_universe(kind);
  if (req.max_faults > 0 && universe.size() > req.max_faults) {
    universe.resize(req.max_faults);
  }
  const tsrt::TsrtOptions opts = tsrt::paper_options(kind);
  std::optional<tsrt::TsrtRun> golden;
  {
    Scope s(&t, "tsrt.golden", job);
    golden = tsrt::run_transient_test(kind, std::nullopt, opts);
  }
  const faults::FaultTestFn test = [kind, &opts, &golden, &t,
                                    job](const faults::FaultSpec& fault) {
    faults::FaultResult r;
    r.fault = fault;
    std::optional<tsrt::TsrtRun> faulty;
    {
      Scope s(&t, "tsrt.fault_test", job);
      faulty = tsrt::run_transient_test(kind, fault, opts);
    }
    Scope s(&t, "tsrt.detect", job);
    r.score = tsrt::combined_detection_percent(*golden, *faulty);
    r.detected = tsrt::is_detected(r.score);
    return r;
  };

  faults::CampaignOptions copts;
  copts.threads = 1;
  std::optional<faults::CollapsedUniverse> cu;
  if (req.collapse) {
    Scope s(&t, "faults.collapse", job);
    faults::CollapseOptions col;
    col.taps = {circuit.output_node};
    cu = faults::collapse(universe, circuit.netlist, circuit.node_map, col);
    copts.collapse = &*cu;
  }
  const faults::CampaignReport report =
      faults::run_campaign(universe, test, copts);

  ReplayResult out;
  out.counts.simulated_ratio =
      universe.empty() ? 0.0
                       : static_cast<double>(report.simulated_count) /
                             static_cast<double>(universe.size());
  Scope s(&t, "core.report_json", job);
  out.report_json = core::to_json(report);
  return out;
}

ReplayResult replay_testability(const core::JobRequest& req, Tracer& t,
                                std::uint64_t job) {
  const tsrt::CircuitKind kind = circuit_kind(req.circuit);
  const tsrt::ExampleCircuit circuit = tsrt::build_circuit(kind);

  msbist::analysis::TestabilityOptions topts;
  topts.taps = {circuit.output_node};
  std::optional<msbist::analysis::TestabilityReport> testability;
  {
    Scope s(&t, "analysis.testability", job);
    testability = msbist::analysis::analyze_testability(circuit.netlist, topts);
  }
  const std::vector<faults::FaultSpec> universe = fault_universe(kind);
  std::optional<faults::CollapsedUniverse> collapsed;
  {
    Scope s(&t, "faults.collapse", job);
    faults::CollapseOptions col;
    col.taps = {circuit.output_node};
    collapsed =
        faults::collapse(universe, circuit.netlist, circuit.node_map, col);
  }

  ReplayResult out;
  out.counts.simulated_ratio =
      universe.empty() ? 0.0
                       : static_cast<double>(collapsed->map.simulated_count()) /
                             static_cast<double>(universe.size());
  Scope s(&t, "core.report_json", job);
  core::JsonWriter w;
  w.begin_object();
  core::write_report_envelope(w, "testability_study");
  w.member("circuit", req.circuit)
      .member("circuit_name", tsrt::circuit_name(kind))
      .member("output_node", circuit.output_node)
      .member("transistor_count", circuit.transistor_count);
  w.key("testability");
  testability->to_json(w);
  w.key("collapse");
  collapsed->to_json(w);
  w.end_object();
  out.report_json = w.str();
  return out;
}

}  // namespace

ReplayResult replay(const std::string& body, Tracer& tracer, std::uint64_t job,
                    const service::DispatchResult& reference) {
  core::JobRequest req;
  {
    Scope s(&tracer, "core.request_parse", job);
    req = core::JobRequest::from_json_text(body);
  }
  Scope s(&tracer, "service.dispatch", job);
  ReplayResult out;
  switch (req.kind) {
    case core::JobKind::kBatch:
      out = replay_batch(req, tracer, job);
      break;
    case core::JobKind::kLockstepBatch:
      out = replay_lockstep(req, tracer, job, reference);
      break;
    case core::JobKind::kFaultCampaign:
      out = replay_campaign(req, tracer, job);
      break;
    case core::JobKind::kTestability:
      out = replay_testability(req, tracer, job);
      break;
  }
  if (!out.report_json.empty()) out.counts.report_bytes = out.report_json.size();
  return out;
}

}  // namespace perfbench
