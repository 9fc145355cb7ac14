// Fixed-step transient analysis.
//
// The engine finds the operating point (unless initial conditions are
// requested), then marches t_start -> t_stop in steps of dt, solving the
// (nonlinear) companion-model system at each step. Step size is the
// caller's choice: switched-capacitor circuits should pick dt so the
// clock edges land on step boundaries (e.g. dt = clock_period / 50).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/netlist.h"
#include "circuit/rescue.h"
#include "circuit/solver.h"

namespace msbist::circuit {

struct TransientOptions {
  double dt = 1e-6;        ///< fixed step size [s]
  double t_stop = 1e-3;    ///< end time [s]
  double t_start = 0.0;    ///< start time [s]
  Integration method = Integration::kTrapezoidal;
  bool use_initial_conditions = false;  ///< skip the DC point; honor cap ICs
  NewtonOptions newton;
  /// Run the ERC (analysis::enforce) before simulating; Error-severity
  /// netlists are rejected with analysis::ErcError instead of diverging
  /// inside Newton-Raphson.
  bool erc = true;
  /// Reuse stamps and LU factorizations across steps (see workspace.h).
  /// Off forces the from-scratch assembly every iteration; results are
  /// bit-identical either way, so this exists for tests and benchmarks.
  bool solver_cache = true;
  /// Convergence-rescue ladder bounds (circuit/rescue.h). rescue.enable =
  /// false restores the fail-fast pre-ladder behavior. Steps that never
  /// fail bypass the ladder entirely, so their waveforms are bit-identical
  /// with or without it.
  RescueOptions rescue;
};

/// Uniformly sampled simulation output. Sample k is at
/// t_start + k * dt; sample 0 is the initial state.
class TransientResult {
 public:
  TransientResult(std::vector<double> time, std::vector<std::string> names,
                  std::vector<std::vector<double>> voltages,
                  std::vector<std::string> branch_names = {},
                  std::vector<std::vector<double>> branch_currents = {});

  const std::vector<double>& time() const { return time_; }
  double dt() const { return time_.size() > 1 ? time_[1] - time_[0] : 0.0; }
  std::size_t samples() const { return time_.size(); }

  /// Waveform of a named node over the whole run (ground -> zeros).
  const std::vector<double>& voltage(const std::string& node_name) const;

  /// Branch current of a named voltage-source-like element over the run
  /// (positive flowing pos -> through the source -> neg).
  const std::vector<double>& current(const std::string& element_name) const;

  const std::vector<std::string>& node_names() const { return names_; }
  const std::vector<std::string>& branch_names() const { return branch_names_; }

  /// Which steps needed the ladder and how they were saved (empty for
  /// runs that never failed).
  const RescueTrace& rescue() const { return rescue_; }
  void set_rescue(RescueTrace trace) { rescue_ = std::move(trace); }

  /// The march workspace's counters: assemblies, factorizations vs LU
  /// reuses, pivot replays and fallbacks (the DC seed solve not included).
  const SolverStats& solver_stats() const { return solver_stats_; }
  void set_solver_stats(const SolverStats& stats) { solver_stats_ = stats; }

 private:
  RescueTrace rescue_;
  SolverStats solver_stats_;
  std::vector<double> time_;
  std::vector<std::string> names_;
  std::vector<std::vector<double>> voltages_;  // [node][sample]
  std::vector<std::string> branch_names_;
  std::vector<std::vector<double>> branch_currents_;  // [branch][sample]
  std::vector<double> zeros_;
  // Built once in the constructor so voltage()/current() are O(1) —
  // metric extraction probes the same few nodes thousands of times.
  std::unordered_map<std::string, std::size_t> node_index_;
  std::unordered_map<std::string, std::size_t> branch_index_;
};

/// Run a transient analysis. Mutates element state (capacitor history), so
/// the netlist is taken by reference; re-running restarts cleanly because
/// transient_begin reinitializes that state.
TransientResult transient(Netlist& netlist, const TransientOptions& opts);

}  // namespace msbist::circuit
