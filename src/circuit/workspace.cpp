#include "circuit/workspace.h"

#include <algorithm>
#include <span>

namespace msbist::circuit {

void StampLog::record(const Netlist& netlist, StampContext ctx,
                      std::size_t unknowns) {
  ctx.guess = nullptr;
  matrix.clear();
  matrix_begin.assign(1, 0);
  rhs.clear();
  rhs_begin.assign(1, 0);
  scratch_rhs_.assign(unknowns, 0.0);
  Stamper s(scratch_rhs_);
  s.set_write_log(&matrix, &rhs);
  for (const auto& el : netlist.elements()) {
    el->stamp(s, ctx);
    matrix_begin.push_back(matrix.size());
    rhs_begin.push_back(rhs.size());
  }
}

SlotMap::SlotMap(const StampLog& log, std::size_t unknowns, std::size_t nodes)
    : element_begin(log.matrix_begin) {
  std::vector<std::pair<int, int>> coords = log.matrix;
  for (std::size_t node = 0; node < nodes; ++node) {
    coords.emplace_back(static_cast<int>(node), static_cast<int>(node));
  }
  pattern = dsp::SparseMatrix::from_pattern(unknowns, unknowns, std::move(coords));
  slots.reserve(log.matrix.size());
  for (const auto& [r, c] : log.matrix) {
    slots.push_back(static_cast<std::uint32_t>(pattern.index_of(r, c)));
  }
  diagonal_slots.reserve(nodes);
  for (std::size_t node = 0; node < nodes; ++node) {
    const int d = static_cast<int>(node);
    diagonal_slots.push_back(static_cast<std::uint32_t>(pattern.index_of(d, d)));
  }
}

void SolverWorkspace::set_forced_dynamic(std::vector<std::string> element_names) {
  std::sort(element_names.begin(), element_names.end());
  element_names.erase(
      std::unique(element_names.begin(), element_names.end()),
      element_names.end());
  forced_dynamic_ = std::move(element_names);
}

void SolverWorkspace::bind(const Netlist& netlist, const StampContext& ctx,
                           std::size_t unknowns, const NewtonOptions& opts) {
  Fingerprint fp;
  fp.netlist_uid = netlist.uid();
  fp.unknowns = unknowns;
  fp.nodes = netlist.node_count();
  fp.elements = netlist.elements().size();
  fp.mode = ctx.mode;
  fp.dt = ctx.dt;
  fp.method = ctx.method;
  fp.gmin = opts.gmin;
  fp.caching = caching_;
  fp.forced_dynamic = forced_dynamic_;
  if (bound_ && fp == fp_) return;
  fp_ = fp;
  rebuild(netlist, ctx);
  bound_ = true;
}

void SolverWorkspace::rebuild(const Netlist& netlist, const StampContext& ctx) {
  ++stats_.binds;
  lu_valid_ = false;
  const auto& elements = netlist.elements();
  rhs_.assign(fp_.unknowns, 0.0);

  // Discovery: every element's write sequence, resolved to CSR slots.
  // SparseLu compares patterns itself, so an unchanged pattern across
  // re-binds keeps the symbolic analysis and pivot order.
  StampContext discovery = ctx;
  discovery.guess = nullptr;
  StampLog log;
  log.record(netlist, discovery, fp_.unknowns);
  SlotMap map(log, fp_.unknowns, fp_.nodes);
  const std::size_t nnz = map.pattern.nnz();
  auto element_slots = [&](std::size_t i) {
    return std::span(map.slots).subspan(
        map.element_begin[i], map.element_begin[i + 1] - map.element_begin[i]);
  };

  // Classification: a slot is dynamic when a matrix-variant element writes
  // it. Forced-dynamic elements (set_forced_dynamic) count as variant, so
  // in-place parameter changes take effect on the next re-stamp. With
  // caching off every slot is dynamic — the from-scratch build.
  std::vector<char> dynamic(nnz, caching_ ? 0 : 1);
  nonlinear_ = false;
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const Element& el = *elements[i];
    if (el.nonlinear()) nonlinear_ = true;
    const bool forced =
        !el.name().empty() &&
        std::binary_search(forced_dynamic_.begin(), forced_dynamic_.end(),
                           el.name());
    if (!el.time_invariant_stamp() || forced) {
      for (const std::uint32_t slot : element_slots(i)) dynamic[slot] = 1;
    }
  }
  dynamic_entries_ =
      static_cast<std::size_t>(std::count(dynamic.begin(), dynamic.end(), 1));

  // Per element, in netlist order: an element re-stamps every iteration
  // iff it owns a dynamic write (its contribution cannot live in the
  // base) or any RHS write (the RHS is rebuilt every iteration); its
  // static writes drop. Time-invariant elements stamp their static writes
  // into the base. Per static slot this reproduces the from-scratch
  // accumulation order exactly: its only writers are time-invariant
  // elements, visited in netlist order, then gmin.
  iteration_elements_.clear();
  iteration_slots_.clear();
  iteration_begin_.assign(1, 0);
  base_values_.assign(nnz, 0.0);
  Stamper base(base_values_.data(), rhs_);
  std::vector<std::uint32_t> base_slots;
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const Element& el = *elements[i];
    const std::span<const std::uint32_t> slots = element_slots(i);
    const bool dynamic_write = std::ranges::any_of(
        slots, [&](std::uint32_t slot) { return dynamic[slot] != 0; });
    if (dynamic_write || log.writes_rhs(i)) {
      iteration_elements_.push_back(&el);
      for (const std::uint32_t slot : slots) {
        iteration_slots_.push_back(dynamic[slot] ? slot : Stamper::kDropSlot);
      }
      iteration_begin_.push_back(iteration_slots_.size());
    }
    if (el.time_invariant_stamp()) {
      base_slots.clear();
      for (const std::uint32_t slot : slots) {
        base_slots.push_back(dynamic[slot] ? Stamper::kDropSlot : slot);
      }
      base.set_slots(base_slots.data(), base_slots.data() + base_slots.size());
      el.stamp(base, discovery);
      base.expect_slots_consumed(el);
    }
  }
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  dynamic_diagonal_slots_.clear();
  for (const std::uint32_t slot : map.diagonal_slots) {
    if (dynamic[slot]) {
      dynamic_diagonal_slots_.push_back(slot);
    } else {
      base_values_[slot] += fp_.gmin;
    }
  }
  pattern_ = std::move(map.pattern);
}

const std::vector<double>& SolverWorkspace::solve_iteration(const StampContext& ctx) {
  ++stats_.assemblies;
  const bool constant = dynamic_entries_ == 0;
  double* values = pattern_.values();
  // Restore the static base with one nnz-sized copy. A constant matrix
  // whose factorization is current needs none: every write drops, only
  // the RHS is assembled.
  if (!constant || !lu_valid_) {
    std::copy(base_values_.begin(), base_values_.end(), values);
  }
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  Stamper s(values, rhs_);
  const std::uint32_t* slots = iteration_slots_.data();
  for (std::size_t k = 0; k < iteration_elements_.size(); ++k) {
    s.set_slots(slots + iteration_begin_[k], slots + iteration_begin_[k + 1]);
    iteration_elements_[k]->stamp(s, ctx);
    s.expect_slots_consumed(*iteration_elements_[k]);
  }

  if (constant) {
    if (!lu_valid_) {
      lu_.factor(pattern_);
      lu_valid_ = true;
      ++stats_.lu_factorizations;
    } else {
      ++stats_.lu_reuses;
    }
  } else {
    for (const std::uint32_t slot : dynamic_diagonal_slots_) {
      values[slot] += fp_.gmin;
    }
    // The first iteration after a pattern change runs a full pivoting
    // factor(); later iterations replay the stored pivot sequence and
    // update schedule (counted in sparse_refactors).
    ++stats_.lu_factorizations;
    const dsp::SparseLuStats before = lu_.stats();
    lu_.refactor(pattern_);
    stats_.sparse_refactors += lu_.stats().refactors - before.refactors;
    stats_.pivot_fallbacks += lu_.stats().pivot_fallbacks - before.pivot_fallbacks;
  }
  lu_.solve_into(rhs_, x_);
  return x_;
}

}  // namespace msbist::circuit
