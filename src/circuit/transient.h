// Fixed-step transient analysis.
//
// The engine finds the operating point (unless initial conditions are
// requested), then marches t_start -> t_stop in steps of dt, solving the
// (nonlinear) companion-model system at each step. Step size is the
// caller's choice: switched-capacitor circuits should pick dt so the
// clock edges land on step boundaries (e.g. dt = clock_period / 50).
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
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

/// Where each named waveform lives in a run's sample-major state block:
/// the time grid plus node and branch name -> MNA row. Built once per run
/// and shared by every result of that run (every lane of a lockstep
/// batch points at the same layout).
struct WaveformLayout {
  /// Layout of `netlist` (unknowns already assigned) sampled at
  /// t_start + k * dt for k = 0..steps. Branches are the named elements
  /// that own an MNA branch row (sources).
  WaveformLayout(const Netlist& netlist, std::size_t unknowns, double t_start,
                 double dt, std::size_t steps);

  std::size_t unknowns;  ///< row stride of the state block
  std::vector<double> time;
  std::vector<std::string> node_names;    ///< node i is MNA row i
  std::vector<std::string> branch_names;
  std::unordered_map<std::string, std::size_t> node_rows;
  std::unordered_map<std::string, std::size_t> branch_rows;
  std::vector<double> zeros;              ///< the ground waveform
};

/// Read-only view of one unknown across every sample of a run: element k
/// sits at data[k * stride]. Valid while the TransientResult it came from
/// is alive.
class WaveformView {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using iterator_concept = std::random_access_iterator_tag;
    using value_type = double;
    using difference_type = std::ptrdiff_t;
    using pointer = const double*;
    using reference = const double&;

    iterator() = default;
    iterator(const double* data, difference_type stride, difference_type k)
        : data_(data), stride_(stride), k_(k) {}

    reference operator*() const { return data_[k_ * stride_]; }
    reference operator[](difference_type n) const { return data_[(k_ + n) * stride_]; }
    iterator& operator++() { ++k_; return *this; }
    iterator operator++(int) { iterator t = *this; ++k_; return t; }
    iterator& operator--() { --k_; return *this; }
    iterator operator--(int) { iterator t = *this; --k_; return t; }
    iterator& operator+=(difference_type n) { k_ += n; return *this; }
    iterator& operator-=(difference_type n) { k_ -= n; return *this; }
    friend iterator operator+(iterator it, difference_type n) { return it += n; }
    friend iterator operator+(difference_type n, iterator it) { return it += n; }
    friend iterator operator-(iterator it, difference_type n) { return it -= n; }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return a.k_ - b.k_;
    }
    friend bool operator==(const iterator& a, const iterator& b) { return a.k_ == b.k_; }
    friend auto operator<=>(const iterator& a, const iterator& b) { return a.k_ <=> b.k_; }

   private:
    // Indexing from the column's first element keeps every pointer formed
    // inside the block, even one past the last sample.
    const double* data_ = nullptr;
    difference_type stride_ = 1;
    difference_type k_ = 0;
  };
  using const_iterator = iterator;

  WaveformView(const double* data, std::size_t stride, std::size_t size)
      : data_(data), stride_(static_cast<std::ptrdiff_t>(stride)), size_(size) {}

  std::size_t size() const { return size_; }
  double operator[](std::size_t k) const { return data_[static_cast<std::ptrdiff_t>(k) * stride_]; }
  double front() const { return (*this)[0]; }
  double back() const { return (*this)[size_ - 1]; }
  iterator begin() const { return {data_, stride_, 0}; }
  iterator end() const { return {data_, stride_, static_cast<std::ptrdiff_t>(size_)}; }

  /// Element-wise ==: bit identity for finite samples.
  friend bool operator==(const WaveformView& a, const WaveformView& b) {
    return std::ranges::equal(a, b);
  }

 private:
  const double* data_;
  std::ptrdiff_t stride_;
  std::size_t size_;
};

/// Uniformly sampled simulation output: the MNA state vector of every
/// sample, stored sample-major (samples x unknowns) in one block. Sample k
/// is at t_start + k * dt; sample 0 is the initial state.
class TransientResult {
 public:
  /// states holds layout->time.size() consecutive state vectors of
  /// layout->unknowns entries each.
  TransientResult(std::shared_ptr<const WaveformLayout> layout,
                  std::vector<double> states);

  const std::vector<double>& time() const { return layout_->time; }
  double dt() const { return time().size() > 1 ? time()[1] - time()[0] : 0.0; }
  std::size_t samples() const { return time().size(); }

  /// Waveform of a named node over the whole run (ground -> zeros).
  /// Throws std::out_of_range for an unknown node.
  WaveformView voltage(const std::string& node_name) const&;

  /// Branch current of a named voltage-source-like element over the run
  /// (positive flowing pos -> through the source -> neg). Throws
  /// std::out_of_range for an unknown branch.
  WaveformView current(const std::string& element_name) const&;

  // A view into a temporary result would dangle.
  WaveformView voltage(const std::string&) const&& = delete;
  WaveformView current(const std::string&) const&& = delete;

  const std::vector<std::string>& node_names() const { return layout_->node_names; }
  const std::vector<std::string>& branch_names() const { return layout_->branch_names; }
  const std::shared_ptr<const WaveformLayout>& layout() const { return layout_; }

  /// Which steps needed the ladder and how they were saved (empty for
  /// runs that never failed).
  const RescueTrace& rescue() const { return rescue_; }
  void set_rescue(RescueTrace trace) { rescue_ = std::move(trace); }

  /// The march workspace's counters: assemblies, factorizations vs LU
  /// reuses, pivot replays and fallbacks (the DC seed solve not included).
  const SolverStats& solver_stats() const { return solver_stats_; }
  void set_solver_stats(const SolverStats& stats) { solver_stats_ = stats; }

 private:
  WaveformView row(std::size_t mna_row) const;

  RescueTrace rescue_;
  SolverStats solver_stats_;
  std::shared_ptr<const WaveformLayout> layout_;
  std::vector<double> states_;  // [sample][unknown]
};

/// Run a transient analysis. Mutates element state (capacitor history), so
/// the netlist is taken by reference; re-running restarts cleanly because
/// transient_begin reinitializes that state.
TransientResult transient(Netlist& netlist, const TransientOptions& opts);

}  // namespace msbist::circuit
