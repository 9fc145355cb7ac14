#include "circuit/batch_transient.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/runner.h"
#include "circuit/workspace.h"
#include "dsp/sparse.h"

namespace msbist::circuit {

namespace {

/// Per-variant working set the step loop touches.
struct Lane {
  Netlist* netlist = nullptr;
  bool alive = true;
  core::Failure failure;
  std::vector<double> state;
  std::vector<double> rhs;
  std::vector<const Element*> rhs_elements;  ///< elements with RHS writes
  std::vector<Element*> stateful;            ///< elements with history
  std::vector<double> states;  ///< [sample][unknown]: the lane's result
};

/// Assemble one variant's whole system from scratch through the shared
/// slot map: zero `values` (nnz) and `rhs`, stamp every element in
/// netlist order, then add gmin on every node diagonal — the
/// accumulation order of the scalar workspace's uncached build.
void assemble(const SlotMap& map, const Netlist& netlist,
              const StampContext& ctx, double gmin, double* values,
              std::vector<double>& rhs) {
  std::fill(values, values + map.pattern.nnz(), 0.0);
  std::fill(rhs.begin(), rhs.end(), 0.0);
  Stamper s(values, rhs);
  const auto& elements = netlist.elements();
  for (std::size_t i = 0; i < elements.size(); ++i) {
    s.set_slots(map.slots.data() + map.element_begin[i],
                map.slots.data() + map.element_begin[i + 1]);
    elements[i]->stamp(s, ctx);
    s.expect_slots_consumed(*elements[i]);
  }
  for (const std::uint32_t slot : map.diagonal_slots) values[slot] += gmin;
}

core::Failure lane_failure(core::ErrorCode code, std::string analysis,
                           std::string detail) {
  core::Failure f;
  f.code = code;
  f.analysis = std::move(analysis);
  f.detail = std::move(detail);
  return f;
}

}  // namespace

BatchTransientReport BatchTransient::run(
    const std::vector<Netlist*>& variants) const {
  if (variants.empty()) {
    throw std::invalid_argument("batch_transient: empty variant list");
  }
  for (Netlist* v : variants) {
    if (v == nullptr) {
      throw std::invalid_argument("batch_transient: null variant netlist");
    }
  }
  if (opts_.dt <= 0) {
    throw std::invalid_argument("batch_transient: dt must be > 0");
  }
  if (opts_.t_stop <= opts_.t_start) {
    throw std::invalid_argument("batch_transient: t_stop must exceed t_start");
  }
  const std::size_t nvar = variants.size();
  // All variants share variant 0's topology, so one ERC covers the lot.
  if (opts_.erc) analysis::enforce(*variants[0], "batch_transient");

  const std::size_t unknowns = variants[0]->assign_unknowns();
  const std::size_t nodes = variants[0]->node_count();
  const std::size_t nelem = variants[0]->elements().size();
  for (std::size_t v = 1; v < nvar; ++v) {
    if (variants[v]->assign_unknowns() != unknowns ||
        variants[v]->node_names() != variants[0]->node_names() ||
        variants[v]->elements().size() != nelem) {
      throw std::invalid_argument(
          "batch_transient: variant " + std::to_string(v) +
          " does not share variant 0's topology (nodes/elements/unknowns)");
    }
  }

  // Discovery: log every element's write sequence. Variant 0's log
  // defines the shared slot map; every other variant must reproduce it
  // exactly (same topology, only values differ), and every element must
  // keep a static linear matrix.
  StampContext discovery;
  discovery.mode = StampContext::Mode::kTransient;
  discovery.dt = opts_.dt;
  discovery.method = opts_.method;
  discovery.t = opts_.t_start;
  discovery.guess = nullptr;

  StampLog log0;
  StampLog log;
  for (std::size_t v = 0; v < nvar; ++v) {
    for (std::size_t i = 0; i < nelem; ++i) {
      const Element* el = variants[v]->elements()[i].get();
      if (el->nonlinear() || !el->time_invariant_stamp()) {
        throw std::invalid_argument(
            "batch_transient: variant " + std::to_string(v) + " element " +
            std::to_string(i) +
            " has a nonlinear or time-varying matrix stamp; the lockstep "
            "engine requires fully static variant matrices");
      }
      // Every lane's result reads its branch currents through variant 0's
      // layout, so branch elements must carry the same names.
      if (el->branch_count() > 0 &&
          el->name() != variants[0]->elements()[i]->name()) {
        throw std::invalid_argument(
            "batch_transient: variant " + std::to_string(v) + " element " +
            std::to_string(i) + " names its branch differently than variant 0");
      }
    }
    (v == 0 ? log0 : log).record(*variants[v], discovery, unknowns);
    if (v > 0 && log != log0) {
      throw std::invalid_argument(
          "batch_transient: variant " + std::to_string(v) +
          " stamps a different footprint than variant 0");
    }
  }
  SlotMap march_map(log0, unknowns, nodes);
  const std::size_t nnz = march_map.pattern.nnz();
  std::vector<double> values(nnz, 0.0);
  std::vector<double> scratch_rhs(unknowns, 0.0);

  std::vector<Lane> lanes(nvar);
  for (std::size_t v = 0; v < nvar; ++v) {
    Lane& lane = lanes[v];
    lane.netlist = variants[v];
    lane.state.assign(unknowns, 0.0);
    lane.rhs.assign(unknowns, 0.0);
    for (std::size_t i = 0; i < nelem; ++i) {
      Element* el = lane.netlist->elements()[i].get();
      if (log0.writes_rhs(i)) lane.rhs_elements.push_back(el);
      if (el->has_transient_state()) lane.stateful.push_back(el);
    }
  }

  // Seed states. The DC operating points run through the same batched
  // machinery as the march: one shared symbolic analysis of the DC
  // pattern, per-lane numeric refactorization, one batched solve. For a
  // linear circuit the scalar solver's converged Newton iterate IS
  // solve(A_dc, b_dc) — the iteration recomputes the identical direct
  // solve until the delta vanishes — and the assembly here accumulates
  // entries in the same element order with the same gmin placement, so
  // the pivot-defining lane's seed is bit-identical to a scalar
  // dc_operating_point. A lane whose seed comes out non-finite is marked
  // failed and sits the march out; a lane whose matrix is singular even
  // under private re-pivoting fails the batch (shared factorization
  // cannot route around it).
  if (!opts_.use_initial_conditions) {
    StampContext dc_ctx;
    dc_ctx.mode = StampContext::Mode::kDc;
    dc_ctx.t = 0.0;
    dc_ctx.guess = nullptr;
    // DC footprints differ from the transient ones (capacitors vanish),
    // so the DC system gets its own slot map, built exactly as the scalar
    // workspace builds one.
    log.record(*variants[0], dc_ctx, unknowns);
    SlotMap dc_map(log, unknowns, nodes);
    dsp::SparseMatrix& dc_pattern = dc_map.pattern;
    std::vector<double> dc_values(dc_pattern.nnz(), 0.0);
    std::vector<double> dc_soa(dc_pattern.nnz() * nvar, 0.0);
    std::vector<double> dc_x(unknowns * nvar, 0.0);
    for (std::size_t v = 0; v < nvar; ++v) {
      assemble(dc_map, *variants[v], dc_ctx, opts_.newton.gmin,
               dc_values.data(), scratch_rhs);
      for (std::size_t p = 0; p < dc_pattern.nnz(); ++p) {
        dc_soa[p * nvar + v] = dc_values[p];
      }
      for (std::size_t row = 0; row < unknowns; ++row) {
        dc_x[row * nvar + v] = scratch_rhs[row];
      }
    }
    dsp::SparseLu dc_shared;
    dsp::BatchSparseLu dc_batch;
    try {
      double* pv = dc_pattern.values();
      for (std::size_t p = 0; p < dc_pattern.nnz(); ++p) {
        pv[p] = dc_soa[p * nvar];
      }
      dc_shared.factor(dc_pattern);
      dc_batch.bind(dc_shared, nvar);
      dc_batch.refactor_batch(dc_soa.data());
    } catch (const std::runtime_error& e) {
      throw core::SingularMatrixError(
          lane_failure(core::ErrorCode::kSingularMatrix,
                       "batch_transient/seed", e.what()));
    }
    dc_batch.solve_batch(dc_x.data());
    for (std::size_t v = 0; v < nvar; ++v) {
      Lane& lane = lanes[v];
      bool finite = true;
      for (std::size_t row = 0; row < unknowns; ++row) {
        lane.state[row] = dc_x[row * nvar + v];
        if (!std::isfinite(lane.state[row])) finite = false;
      }
      if (!finite) {
        lane.alive = false;
        lane.failure = lane_failure(
            core::ErrorCode::kNumericOverflow, "batch_transient/seed",
            "DC operating point is not finite");
        lane.state.assign(unknowns, 0.0);
      }
    }
  }
  for (std::size_t v = 0; v < nvar; ++v) {
    for (auto& el : lanes[v].netlist->elements()) {
      el->transient_begin(lanes[v].state, opts_.use_initial_conditions);
    }
  }

  // Shared numerics: assemble each lane's (static) matrix through the
  // slot map — the same accumulation the scalar workspace performs —
  // transpose it into the entry-major SoA slab, factor variant 0 with
  // pivoting, and refactor every lane against its pivot sequence in one
  // batch pass.
  std::vector<double> a_soa(nnz * nvar, 0.0);
  for (std::size_t v = 0; v < nvar; ++v) {
    assemble(march_map, *variants[v], discovery, opts_.newton.gmin,
             values.data(), scratch_rhs);
    for (std::size_t p = 0; p < nnz; ++p) a_soa[p * nvar + v] = values[p];
  }

  dsp::SparseLu shared;
  dsp::BatchSparseLu batch;
  try {
    double* pv = march_map.pattern.values();
    for (std::size_t p = 0; p < nnz; ++p) pv[p] = a_soa[p * nvar];
    shared.factor(march_map.pattern);
    batch.bind(shared, nvar);
    batch.refactor_batch(a_soa.data());
  } catch (const std::runtime_error& e) {
    // A lane's matrix is singular even under private re-pivoting: the
    // shared factorization cannot route around it, so the batch fails
    // with the same typed error the scalar solver would raise.
    throw core::SingularMatrixError(lane_failure(
        core::ErrorCode::kSingularMatrix, "batch_transient", e.what()));
  }

  if (opts_.use_initial_conditions) {
    // Consistent initial point through the companion models, exactly as
    // transient() computes sample 0 under initial conditions: one solve of
    // the (already factored) march matrix against the t_start RHS, not
    // accepted as a step. Batched across lanes through the march
    // factorization — the same solve the scalar workspace would perform.
    std::vector<double> x0(unknowns * nvar, 0.0);
    for (std::size_t v = 0; v < nvar; ++v) {
      Lane& lane = lanes[v];
      std::fill(lane.rhs.begin(), lane.rhs.end(), 0.0);
      Stamper s(lane.rhs);
      for (const Element* el : lane.rhs_elements) el->stamp(s, discovery);
      for (std::size_t row = 0; row < unknowns; ++row) {
        x0[row * nvar + v] = lane.rhs[row];
      }
    }
    batch.solve_batch(x0.data());
    for (std::size_t v = 0; v < nvar; ++v) {
      Lane& lane = lanes[v];
      bool finite = true;
      for (std::size_t row = 0; row < unknowns; ++row) {
        lane.state[row] = x0[row * nvar + v];
        if (!std::isfinite(lane.state[row])) finite = false;
      }
      if (!finite) {
        lane.alive = false;
        lane.failure = lane_failure(
            core::ErrorCode::kNumericOverflow, "batch_transient/seed",
            "initial-condition solve is not finite");
        lane.state.assign(unknowns, 0.0);
      }
    }
  }

  const auto steps = static_cast<std::size_t>(
      std::llround((opts_.t_stop - opts_.t_start) / opts_.dt));
  // One layout (time grid, name -> row maps) serves every lane. Each live
  // lane appends its state vector to its own sample-major block once per
  // step — a contiguous copy — and that block becomes its result.
  auto layout = std::make_shared<const WaveformLayout>(
      *variants[0], unknowns, opts_.t_start, opts_.dt, steps);
  for (Lane& lane : lanes) {
    if (!lane.alive) continue;
    lane.states.reserve((steps + 1) * unknowns);
    lane.states.insert(lane.states.end(), lane.state.begin(), lane.state.end());
  }

  // The march: per-lane RHS stamps transposed into the SoA slab, one
  // vectorized solve across all lanes, per-lane accept + record. Lanes
  // are arithmetically independent inside solve_batch, so a dead lane's
  // zeroed column never perturbs the others.
  std::vector<double> x_soa(unknowns * nvar, 0.0);
  StampContext ctx = discovery;
  for (std::size_t k = 1; k <= steps; ++k) {
    ctx.t = opts_.t_start + static_cast<double>(k) * opts_.dt;
    for (std::size_t v = 0; v < nvar; ++v) {
      Lane& lane = lanes[v];
      if (!lane.alive) {
        for (std::size_t row = 0; row < unknowns; ++row) {
          x_soa[row * nvar + v] = 0.0;
        }
        continue;
      }
      std::fill(lane.rhs.begin(), lane.rhs.end(), 0.0);
      Stamper s(lane.rhs);
      for (const Element* el : lane.rhs_elements) el->stamp(s, ctx);
      for (std::size_t row = 0; row < unknowns; ++row) {
        x_soa[row * nvar + v] = lane.rhs[row];
      }
    }
    batch.solve_batch(x_soa.data());
    // Cheap whole-slab finiteness probe: a NaN/Inf anywhere poisons the
    // accumulator (Inf - Inf = NaN), so the per-lane scan only runs on the
    // rare step where some lane actually blew up.
    double probe = 0.0;
    for (const double x : x_soa) probe += x;
    if (!std::isfinite(probe)) {
      for (std::size_t v = 0; v < nvar; ++v) {
        Lane& lane = lanes[v];
        if (!lane.alive) continue;
        bool finite = true;
        for (std::size_t row = 0; row < unknowns; ++row) {
          if (!std::isfinite(x_soa[row * nvar + v])) finite = false;
        }
        if (!finite) {
          lane.alive = false;
          lane.failure = lane_failure(core::ErrorCode::kNumericOverflow,
                                      "batch_transient",
                                      "lockstep solve produced NaN/Inf");
          lane.failure.has_time = true;
          lane.failure.time_s = ctx.t;
          // Zero the column so the dead lane's values never perturb the
          // finite probe of later steps; its partial history is dropped.
          for (std::size_t row = 0; row < unknowns; ++row) {
            x_soa[row * nvar + v] = 0.0;
          }
          lane.states = std::vector<double>();
        }
      }
    }
    for (std::size_t v = 0; v < nvar; ++v) {
      Lane& lane = lanes[v];
      if (!lane.alive) continue;
      for (std::size_t row = 0; row < unknowns; ++row) {
        lane.state[row] = x_soa[row * nvar + v];
      }
      lane.states.insert(lane.states.end(), lane.state.begin(),
                         lane.state.end());
      for (Element* el : lane.stateful) el->transient_accept(lane.state, ctx);
    }
  }

  BatchTransientReport report;
  report.stats.variants = nvar;
  report.stats.unknowns = unknowns;
  report.stats.pattern_nnz = nnz;
  report.stats.steps = steps;
  report.stats.symbolic_analyses = shared.stats().analyses;
  report.stats.pivot_fallbacks = batch.fallback_count();
  report.variants.reserve(nvar);
  for (Lane& lane : lanes) {
    BatchVariantOutcome out;
    if (lane.alive) {
      out.result.emplace(layout, std::move(lane.states));
    } else {
      out.failure = std::move(lane.failure);
      ++report.stats.failed_variants;
    }
    report.variants.push_back(std::move(out));
  }
  return report;
}

}  // namespace msbist::circuit
