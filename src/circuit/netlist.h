// Netlist representation and the MNA stamping interface.
//
// A Netlist is a bag of circuit elements connected at named nodes. Analyses
// (dc.h, transient.h) assemble the modified-nodal-analysis system by asking
// every element to stamp its (linearized) companion model into a Stamper.
// The design mirrors a conventional SPICE core at a small scale: node
// voltages plus one branch current per voltage-source-like element.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dsp/matrix.h"

namespace msbist::circuit {

class Element;

/// Node index; kGround (-1) is the reference node and is never stamped.
using NodeId = int;
inline constexpr NodeId kGround = -1;

/// Transient integration method.
enum class Integration { kBackwardEuler, kTrapezoidal };

/// Everything an element needs to know to stamp itself for one Newton
/// iteration of one analysis point.
struct StampContext {
  enum class Mode { kDc, kTransient };
  Mode mode = Mode::kDc;
  double t = 0.0;                     ///< time at the end of the step
  double dt = 0.0;                    ///< step size (transient only)
  Integration method = Integration::kTrapezoidal;
  double source_scale = 1.0;          ///< source stepping homotopy factor
  const std::vector<double>* guess = nullptr;  ///< current Newton iterate
};

/// Write adapter over the MNA matrix and right-hand side. Node index
/// kGround is silently dropped, which keeps element stamping code free of
/// ground special cases.
///
/// Matrix writes go to one of three sinks:
///  * dense mode — accumulate into a dense matrix (AC linearization);
///  * slot-sink mode — the SolverWorkspace hot path (workspace.h): each
///    write lands in the CSR value slot that the next entry of the
///    element's slot list names, or is dropped when that entry is
///    kDropSlot. Slot lists are resolved once per analysis from a
///    discovery pass, so a write costs one index load, never a search;
///  * drop mode — matrix writes are discarded (discovery passes and
///    RHS-only stamping).
/// A write log records the coordinates of every attempted matrix and RHS
/// write, which is how discovery learns each element's write sequence.
class Stamper {
 public:
  /// Slot-list entry for a write that is dropped (its matrix entry is
  /// served from a cached base instead).
  static constexpr std::uint32_t kDropSlot = 0xffffffffu;

  /// Dense mode.
  Stamper(dsp::Matrix& g, std::vector<double>& rhs) : g_(&g), rhs_(rhs) {}
  /// Slot-sink mode over a CSR value array; call set_slots() before each
  /// element's stamp().
  Stamper(double* values, std::vector<double>& rhs)
      : values_(values), rhs_(rhs), slot_mode_(true) {}
  /// Drop mode: only the RHS is written.
  explicit Stamper(std::vector<double>& rhs) : rhs_(rhs) {}

  /// Record every matrix / RHS write's coordinates (discovery mode).
  void set_write_log(std::vector<std::pair<int, int>>* matrix_log,
                     std::vector<int>* rhs_log) {
    log_ = matrix_log;
    rhs_log_ = rhs_log;
  }

  /// Slot-sink mode: the next element's matrix writes consume
  /// [begin, end) in order. A write past `end` throws std::logic_error.
  void set_slots(const std::uint32_t* begin, const std::uint32_t* end) {
    slot_ = begin;
    slot_end_ = end;
  }
  /// Throws std::logic_error unless the element consumed every slot of
  /// its list (its write sequence changed since discovery).
  void expect_slots_consumed(const Element& el) const {
    if (slot_ != slot_end_) throw_write_count_mismatch(&el);
  }

  /// Conductance g between nodes a and b (classic 4-point stamp).
  void conductance(NodeId a, NodeId b, double g) {
    if (a >= 0) add(a, a, g);
    if (b >= 0) add(b, b, g);
    if (a >= 0 && b >= 0) {
      add(a, b, -g);
      add(b, a, -g);
    }
  }

  /// Current source driving i from node a through the element to node b
  /// (SPICE convention: positive current leaves a and enters b).
  void current(NodeId a, NodeId b, double i) {
    if (a >= 0) add_rhs(a, -i);
    if (b >= 0) add_rhs(b, i);
  }

  /// Raw matrix entry (row/col may be branch rows); both must be >= 0.
  void add(int row, int col, double v) {
    if (log_) log_->emplace_back(row, col);
    if (slot_mode_) {
      if (slot_ == slot_end_) throw_write_count_mismatch(nullptr);
      const std::uint32_t slot = *slot_++;
      if (slot != kDropSlot) values_[slot] += v;
    } else if (g_ != nullptr) {
      (*g_)(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) += v;
    }
  }

  /// Raw RHS entry.
  void add_rhs(int row, double v) {
    if (rhs_log_) rhs_log_->push_back(row);
    rhs_[static_cast<std::size_t>(row)] += v;
  }

  /// Value of the current Newton iterate at a node (0 for ground).
  static double voltage(const StampContext& ctx, NodeId n) {
    if (n < 0) return 0.0;
    if (ctx.guess == nullptr) return 0.0;
    return (*ctx.guess)[static_cast<std::size_t>(n)];
  }

 private:
  /// el is nullptr when the overrun is caught mid-stamp.
  [[noreturn]] static void throw_write_count_mismatch(const Element* el);

  dsp::Matrix* g_ = nullptr;
  double* values_ = nullptr;
  std::vector<double>& rhs_;
  bool slot_mode_ = false;
  const std::uint32_t* slot_ = nullptr;
  const std::uint32_t* slot_end_ = nullptr;
  std::vector<std::pair<int, int>>* log_ = nullptr;
  std::vector<int>* rhs_log_ = nullptr;
};

/// Base class for all circuit elements.
class Element {
 public:
  virtual ~Element() = default;

  /// Stamp the element's (linearized) companion model.
  virtual void stamp(Stamper& s, const StampContext& ctx) const = 0;

  /// Nodes this element touches, in a fixed per-element order (terminal 0
  /// first). Ground appears as kGround. Drives the static-analysis (ERC)
  /// connectivity model in analysis/; every element must describe itself.
  virtual std::vector<NodeId> terminals() const = 0;

  /// Pairs of indices into terminals() between which the element conducts
  /// at DC (finite resistance or a voltage-source constraint). Capacitors,
  /// current sources and sense-only control pins provide none.
  virtual std::vector<std::pair<int, int>> dc_paths() const { return {}; }

  /// True when the stamp depends on the Newton iterate.
  virtual bool nonlinear() const { return false; }

  /// True when the element's *matrix* stamp is invariant across every
  /// Newton iteration and time step of a fixed-dt analysis: the G-stamps
  /// of resistors and controlled sources, the +/-1 branch rows of voltage
  /// sources, and the fixed-dt companion conductance of capacitors. RHS
  /// contributions may still vary freely (source waveforms, companion
  /// history currents). The solver workspace stamps such elements into a
  /// cached base matrix once per analysis instead of once per iteration.
  ///
  /// Contract for every element, invariant or not: within one analysis
  /// (fixed StampContext::mode, dt, and method) the *sequence* of matrix
  /// and RHS writes made by stamp() — how many, in what order, to which
  /// coordinates — must not depend on t or the Newton iterate (values
  /// may change; the sequence may not). A one-time discovery pass records
  /// that sequence and the solver workspace resolves each matrix write to
  /// its CSR slot by position, so the workspace throws std::logic_error
  /// when an element's per-iteration write count differs from
  /// discovery's. All elements in this library satisfy this by
  /// construction (their writes are guarded only by node indices).
  virtual bool time_invariant_stamp() const { return false; }

  /// Number of extra MNA branch-current rows this element needs.
  virtual int branch_count() const { return 0; }

  /// Called by the engine with the element's first branch row index
  /// (node_count .. node_count+branches-1 range in the MNA vector).
  void set_branch_base(int base) { branch_base_ = base; }
  int branch_base() const { return branch_base_; }

  /// Transient bookkeeping: called once after the operating point with the
  /// full MNA solution, then after each accepted step.
  virtual void transient_begin(const std::vector<double>& /*solution*/,
                               bool /*use_initial_conditions*/) {}
  virtual void transient_accept(const std::vector<double>& /*solution*/,
                                const StampContext& /*ctx*/) {}
  /// True when transient_accept is non-trivial (the element carries
  /// history, e.g. a capacitor). Lets the transient engine skip the
  /// per-step virtual dispatch for stateless elements.
  virtual bool has_transient_state() const { return false; }
  /// Snapshot / restore the transient history, used by the rescue
  /// ladder's timestep-halving rung: a failed substep march must leave
  /// element state exactly as it was at the start of the full step.
  /// Elements with has_transient_state() must implement both.
  virtual void transient_checkpoint() {}
  virtual void transient_rollback() {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

 private:
  int branch_base_ = -1;
  std::string name_;
};

/// A circuit: named nodes plus owned elements.
class Netlist {
 public:
  Netlist();

  /// Process-unique identity, assigned at construction. Distinguishes a
  /// netlist from a different one later constructed at the same address
  /// (solver workspaces key their caches on it).
  std::uint64_t uid() const { return uid_; }

  /// Index for a node name, creating it on first use. "0", "gnd" and
  /// "GND" all map to the ground reference.
  NodeId node(const std::string& name);

  /// Look up an existing node; throws std::out_of_range if absent.
  NodeId find_node(const std::string& name) const;

  /// Add an element (optionally named for later lookup). Returns a
  /// non-owning pointer usable to query branch currents after analysis.
  template <typename T, typename... Args>
  T* add(Args&&... args) {
    auto el = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = el.get();
    elements_.push_back(std::move(el));
    return raw;
  }

  /// Attach a name to the most recently added element.
  void name_last(const std::string& n);

  /// Element lookup by name; nullptr when absent.
  Element* find(const std::string& n) const;

  std::size_t node_count() const { return names_.size(); }
  const std::vector<std::string>& node_names() const { return names_; }
  const std::vector<std::unique_ptr<Element>>& elements() const { return elements_; }
  std::vector<std::unique_ptr<Element>>& elements() { return elements_; }

  /// Total MNA unknowns: nodes + branch rows. Assigns branch bases.
  std::size_t assign_unknowns();

 private:
  std::uint64_t uid_;
  std::unordered_map<std::string, NodeId> index_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Element>> elements_;
};

}  // namespace msbist::circuit
