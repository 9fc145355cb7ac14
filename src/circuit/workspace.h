// SolverWorkspace: the reuse engine behind the MNA hot path.
//
// Every MNA system is factored by the sparse engine (dsp::SparseLu), and
// assembly writes straight into its CSR values. Almost all per-iteration
// work is redundant on the circuits this library simulates: resistor
// G-stamps, voltage-source branch rows, and fixed-dt capacitor companion
// conductances never change during an analysis, and for a fully linear
// netlist the whole matrix is constant — only the RHS moves.
//
// The workspace exploits that in four layers, while keeping the
// assembled system BIT-IDENTICAL to a from-scratch rebuild:
//
//  1. Buffer reuse — CSR values, RHS, and solution vectors are allocated
//     once and recycled across iterations, steps, and (if the caller
//     keeps the workspace) whole analyses.
//
//  2. Stamp-to-slot map — a one-time discovery pass logs every element's
//     write sequence (StampLog). The CSR pattern is every logged matrix
//     coordinate plus every node diagonal (gmin), and each logged write
//     is resolved to the index of its CSR value (SlotMap). Per iteration
//     an element's k-th matrix write goes to the k-th slot of its list —
//     no search, no dense n×n matrix. This relies on the Element
//     contract (netlist.h): the write *sequence* is value-independent;
//     an element whose write count drifts throws std::logic_error.
//
//  3. Stamp caching — a slot is *static* when only time_invariant_stamp()
//     elements write it, *dynamic* otherwise. Static slots (plus their
//     gmin) are accumulated once into base_values_; each iteration
//     restores the base with one nnz-sized copy and re-stamps only the
//     elements owning dynamic or RHS writes, their static writes mapped
//     to Stamper::kDropSlot. Each value still receives exactly the same
//     contributions in the same element order (drops never reorder), so
//     the assembled matrix matches the naive build bit for bit.
//
//  4. Factorization reuse — when no slot is dynamic (fully linear
//     netlist at fixed dt) the matrix is constant for the whole analysis:
//     factor once, then only forward/back-substitute per step. Otherwise
//     the first iteration after a pattern change runs the pivoting
//     factor() and later iterations replay its pivot sequence
//     (SparseLu::refactor). The symbolic analysis and pivot order survive
//     re-binds whose pattern is unchanged (the rescue ladder's gmin
//     steps).
//
// Invalidation: a workspace re-binds (rebuilds the slot map, base, and
// factorization) whenever the analysis fingerprint changes — netlist
// identity, unknown/node/element counts, analysis mode, dt, integration
// method, gmin, or the caching policy. Fault injection adds elements, so
// an injected netlist re-binds automatically. In-place *parameter*
// mutation of an existing element (e.g. Resistor::set_resistance between
// two analyses run against one long-lived workspace) is invisible to the
// fingerprint: call invalidate() after such mutations. The analyses in
// dc.cpp/transient.cpp construct or re-bind workspaces per run, so normal
// callers never face stale caches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuit/netlist.h"
#include "circuit/solver.h"
#include "dsp/sparse.h"

namespace msbist::circuit {

/// Every element's matrix and RHS write sequence at one analysis point,
/// flattened element-major: element i's matrix writes are
/// matrix[matrix_begin[i] .. matrix_begin[i + 1]), its RHS rows likewise.
struct StampLog {
  std::vector<std::pair<int, int>> matrix;
  std::vector<std::size_t> matrix_begin{0};
  std::vector<int> rhs;
  std::vector<std::size_t> rhs_begin{0};

  /// Replace the log with one drop-mode stamp of every element, the
  /// iterate absent (ctx.guess is ignored; Stamper::voltage reads zeros).
  /// By the Element contract the log does not depend on values. The
  /// netlist's unknowns must be assigned (Netlist::assign_unknowns).
  /// Capacity is kept, so re-recording many netlists does not allocate.
  void record(const Netlist& netlist, StampContext ctx, std::size_t unknowns);

  bool writes_rhs(std::size_t element) const {
    return rhs_begin[element + 1] > rhs_begin[element];
  }
  bool operator==(const StampLog& o) const {
    return matrix == o.matrix && matrix_begin == o.matrix_begin &&
           rhs == o.rhs && rhs_begin == o.rhs_begin;
  }

 private:
  std::vector<double> scratch_rhs_;  ///< drop-mode RHS sink, reused
};

/// The stamp-to-slot map of one analysis: the CSR pattern (every logged
/// matrix write plus every node diagonal, which carries gmin) and, for
/// each logged write, the index of its entry in pattern.values().
struct SlotMap {
  SlotMap(const StampLog& log, std::size_t unknowns, std::size_t nodes);

  dsp::SparseMatrix pattern;
  std::vector<std::uint32_t> slots;           ///< parallel to StampLog::matrix
  std::vector<std::size_t> element_begin;     ///< StampLog::matrix_begin
  std::vector<std::uint32_t> diagonal_slots;  ///< node n's diagonal entry
};

class SolverWorkspace {
 public:
  SolverWorkspace() = default;

  /// Disable (or re-enable) every cache: with caching off all slots are
  /// treated as dynamic and the factorization is never reused, so each
  /// iteration performs the full from-scratch stamp + LU — the reference
  /// path the bit-identity tests and benches compare against. Buffers and
  /// the slot map are still reused. Toggling changes the fingerprint
  /// (forces a re-bind).
  void set_caching(bool enabled) { caching_ = enabled; }
  bool caching() const { return caching_; }

  /// Bind to one analysis of one netlist. Rebuilds the slot map, base
  /// values, and (lazily) the factorization when the fingerprint differs
  /// from the previous bind; a matching fingerprint is a no-op, which is
  /// what makes per-step reuse work.
  void bind(const Netlist& netlist, const StampContext& ctx, std::size_t unknowns,
            const NewtonOptions& opts);

  /// Drop every cached product. The next bind() rebuilds from scratch;
  /// call after mutating element parameters in place.
  void invalidate() { bound_ = false; }

  /// Classify the named elements' slots as dynamic even when they are
  /// time-invariant, so in-place parameter mutation of those elements
  /// between solves is picked up without invalidate(). This is the
  /// dc_sweep hook: the swept source re-stamps every iteration while the
  /// rest of the circuit keeps its cached base values and symbolic
  /// analysis across sweep points. Values still accumulate in the same
  /// per-entry order as a from-scratch build (dropped writes only move
  /// between base and per-iteration stamping, they are never reordered),
  /// so results stay bit-identical. Changing the set changes the
  /// fingerprint (forces a re-bind).
  void set_forced_dynamic(std::vector<std::string> element_names);
  const std::vector<std::string>& forced_dynamic() const {
    return forced_dynamic_;
  }

  /// Assemble and solve the MNA system for one Newton iteration at ctx
  /// (bind() must have been called for this analysis). Returns the
  /// solution by reference; valid until the next call. Throws
  /// std::logic_error when an element's write count differs from its
  /// discovery pass.
  const std::vector<double>& solve_iteration(const StampContext& ctx);

  /// True when any element's stamp depends on the Newton iterate.
  bool nonlinear() const { return nonlinear_; }

  /// True when the bound analysis has a constant matrix (LU reuse active).
  bool matrix_fully_static() const { return bound_ && dynamic_entries_ == 0; }

  const SolverStats& stats() const { return stats_; }
  void reset_stats() { stats_ = SolverStats{}; }

 private:
  struct Fingerprint {
    std::uint64_t netlist_uid = 0;
    std::size_t unknowns = 0;
    std::size_t nodes = 0;
    std::size_t elements = 0;
    StampContext::Mode mode = StampContext::Mode::kDc;
    double dt = 0.0;
    Integration method = Integration::kTrapezoidal;
    double gmin = 0.0;
    bool caching = true;
    std::vector<std::string> forced_dynamic;

    bool operator==(const Fingerprint&) const = default;
  };

  void rebuild(const Netlist& netlist, const StampContext& ctx);

  bool caching_ = true;
  bool bound_ = false;
  Fingerprint fp_;

  // Bind products (valid while bound_). pattern_.values() is the
  // per-iteration system; base_values_ holds the static slots' stamps
  // plus their gmin and zero on dynamic slots.
  dsp::SparseMatrix pattern_;
  std::vector<double> base_values_;
  std::size_t dynamic_entries_ = 0;
  bool nonlinear_ = false;
  // Elements with at least one dynamic matrix write or any RHS write must
  // be stamped every iteration; purely-static, RHS-free elements (e.g.
  // resistors away from any nonlinear device) are skipped entirely.
  // Element k's writes consume iteration_slots_[iteration_begin_[k] ..
  // iteration_begin_[k + 1]), static ones mapped to Stamper::kDropSlot.
  std::vector<const Element*> iteration_elements_;
  std::vector<std::uint32_t> iteration_slots_;
  std::vector<std::size_t> iteration_begin_;
  std::vector<std::uint32_t> dynamic_diagonal_slots_;  ///< gmin per iteration

  std::vector<double> rhs_;
  std::vector<double> x_;
  dsp::SparseLu lu_;
  bool lu_valid_ = false;  ///< constant-matrix factorization is current

  std::vector<std::string> forced_dynamic_;  ///< sorted element names

  SolverStats stats_;
};

}  // namespace msbist::circuit
