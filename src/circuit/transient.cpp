#include "circuit/transient.h"

#include <cmath>
#include <stdexcept>

#include "analysis/runner.h"
#include "circuit/dc.h"
#include "circuit/workspace.h"

namespace msbist::circuit {

WaveformLayout::WaveformLayout(const Netlist& netlist, std::size_t unknowns,
                               double t_start, double dt, std::size_t steps)
    : unknowns(unknowns), time(steps + 1), node_names(netlist.node_names()),
      zeros(steps + 1, 0.0) {
  for (std::size_t k = 0; k <= steps; ++k) {
    time[k] = t_start + static_cast<double>(k) * dt;
  }
  node_rows.reserve(node_names.size());
  for (std::size_t i = 0; i < node_names.size(); ++i) node_rows.emplace(node_names[i], i);
  for (const auto& el : netlist.elements()) {
    if (el->branch_count() > 0 && !el->name().empty()) {
      branch_names.push_back(el->name());
      branch_rows.emplace(el->name(), static_cast<std::size_t>(el->branch_base()));
    }
  }
}

TransientResult::TransientResult(std::shared_ptr<const WaveformLayout> layout,
                                 std::vector<double> states)
    : layout_(std::move(layout)), states_(std::move(states)) {
  if (states_.size() != layout_->time.size() * layout_->unknowns) {
    throw std::invalid_argument("TransientResult: state block does not match its layout");
  }
}

WaveformView TransientResult::row(std::size_t mna_row) const {
  return {states_.data() + mna_row, layout_->unknowns, samples()};
}

WaveformView TransientResult::current(const std::string& element_name) const& {
  const auto it = layout_->branch_rows.find(element_name);
  if (it == layout_->branch_rows.end()) {
    throw std::out_of_range("TransientResult: unknown branch element " + element_name);
  }
  return row(it->second);
}

WaveformView TransientResult::voltage(const std::string& node_name) const& {
  if (node_name == "0" || node_name == "gnd" || node_name == "GND") {
    return {layout_->zeros.data(), 1, samples()};
  }
  const auto it = layout_->node_rows.find(node_name);
  if (it == layout_->node_rows.end()) {
    throw std::out_of_range("TransientResult: unknown node " + node_name);
  }
  return row(it->second);
}

TransientResult transient(Netlist& netlist, const TransientOptions& opts) {
  if (opts.dt <= 0) throw std::invalid_argument("transient: dt must be > 0");
  if (opts.t_stop <= opts.t_start) {
    throw std::invalid_argument("transient: t_stop must exceed t_start");
  }
  if (opts.erc) analysis::enforce(netlist, "transient");
  const std::size_t unknowns = netlist.assign_unknowns();

  // Initial state: operating point, or zeros + capacitor ICs.
  std::vector<double> state(unknowns, 0.0);
  if (!opts.use_initial_conditions) {
    DcOptions dc_opts;
    dc_opts.newton = opts.newton;
    dc_opts.erc = false;  // already enforced above
    state = dc_operating_point(netlist, dc_opts).raw();
  }
  for (auto& el : netlist.elements()) {
    el->transient_begin(state, opts.use_initial_conditions);
  }

  // One workspace for every step of this run: buffers, the static-stamp
  // base, and (for linear netlists) the LU factorization all persist
  // across the t_start -> t_stop march.
  SolverWorkspace workspace;
  workspace.set_caching(opts.solver_cache);

  StampContext init_ctx;
  init_ctx.mode = StampContext::Mode::kTransient;
  init_ctx.dt = opts.dt;
  init_ctx.method = opts.method;
  init_ctx.t = opts.t_start;
  if (opts.use_initial_conditions) {
    // Solve a consistent initial point so sample 0 reflects capacitor
    // initial conditions through the companion models (not accepted as a
    // step: element state stays at the declared ICs).
    state = solve_mna(netlist, init_ctx, unknowns, state, opts.newton, &workspace);
  }

  const auto steps = static_cast<std::size_t>(
      std::llround((opts.t_stop - opts.t_start) / opts.dt));
  auto layout = std::make_shared<const WaveformLayout>(
      netlist, unknowns, opts.t_start, opts.dt, steps);
  // The run's history: one state vector appended per accepted step.
  std::vector<double> states;
  states.reserve((steps + 1) * unknowns);
  states.insert(states.end(), state.begin(), state.end());

  StampContext ctx;
  ctx.mode = StampContext::Mode::kTransient;
  ctx.dt = opts.dt;
  ctx.method = opts.method;

  // Only elements with history need the per-step accept callback.
  std::vector<Element*> stateful;
  for (auto& el : netlist.elements()) {
    if (el->has_transient_state()) stateful.push_back(el.get());
  }

  RescueTrace trace;
  for (std::size_t k = 1; k <= steps; ++k) {
    ctx.t = opts.t_start + static_cast<double>(k) * opts.dt;
    TransientStepResult step_result;
    try {
      step_result = solve_transient_step_with_rescue(netlist, ctx, unknowns,
                                                     state, opts.newton,
                                                     opts.rescue, workspace,
                                                     stateful, trace);
    } catch (const core::SolverError& e) {
      core::Failure f = e.failure();
      f.analysis = "transient";
      f.has_time = true;
      f.time_s = ctx.t;
      core::throw_failure(std::move(f));
    }
    state = std::move(step_result.state);
    // The dt-halving rung accepts element state per substep itself.
    if (!step_result.elements_advanced) {
      for (Element* el : stateful) el->transient_accept(state, ctx);
    }
    states.insert(states.end(), state.begin(), state.end());
  }

  TransientResult result(std::move(layout), std::move(states));
  result.set_rescue(std::move(trace));
  result.set_solver_stats(workspace.stats());
  return result;
}

}  // namespace msbist::circuit
