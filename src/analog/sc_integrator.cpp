#include "analog/sc_integrator.h"

#include <algorithm>
#include <stdexcept>

#include "circuit/elements.h"

namespace msbist::analog {

ScIntegratorParams ScIntegratorParams::varied(ProcessVariation& pv) const {
  ScIntegratorParams p = *this;
  // Capacitor ratios match well on-chip; absolute leakage and offsets vary.
  p.ratio_error = pv.vary_abs(ratio_error, 2e-3);
  p.invert_gain_mismatch = pv.vary_abs(invert_gain_mismatch, 1e-3);
  p.offset_per_cycle = pv.vary_abs(offset_per_cycle, 50e-6);
  p.leak = std::max(0.0, pv.vary_abs(leak, 1e-5));
  p.nonlinearity = pv.vary_abs(nonlinearity, 1e-4);
  p.input_nonlinearity = pv.vary_abs(input_nonlinearity, 1e-4);
  return p;
}

ScIntegratorModel::ScIntegratorModel(ScIntegratorParams p)
    : params_(p),
      gain_((1.0 / p.cap_ratio) * (1.0 + p.ratio_error)),
      retain_(1.0 - p.leak),
      invert_gain_(1.0 + p.invert_gain_mismatch) {
  if (params_.cap_ratio <= 0) {
    throw std::invalid_argument("ScIntegratorModel: cap_ratio must be > 0");
  }
  if (params_.vout_max <= params_.vout_min) {
    throw std::invalid_argument("ScIntegratorModel: vout_max must exceed vout_min");
  }
  vout_ = clamp(0.0);
}

ScIntegratorNodes build_sc_integrator(circuit::Netlist& netlist,
                                      const ScIntegratorBuildOptions& opts) {
  using circuit::ClockWave;
  using circuit::NodeId;

  if (opts.cs <= 0 || opts.cf <= 0) {
    throw std::invalid_argument("build_sc_integrator: capacitors must be > 0");
  }

  ScIntegratorNodes nodes;
  const auto pfx = [&](const std::string& base) { return opts.prefix + base; };
  nodes.input = pfx("vin");
  nodes.sample_top = pfx("st");

  Op1Options op_opts = opts.opamp;
  op_opts.prefix = opts.prefix + "op_";
  nodes.opamp = build_op1(netlist, op_opts);
  nodes.sum = nodes.opamp.in_minus;
  nodes.output = nodes.opamp.out;

  const NodeId in = netlist.node(nodes.input);
  const NodeId st = netlist.node(nodes.sample_top);
  const NodeId sum = netlist.find_node(nodes.sum);
  const NodeId out = netlist.find_node(nodes.output);
  const NodeId plus = netlist.find_node(nodes.opamp.in_plus);
  const NodeId gnd = circuit::kGround;

  // Mid-rail reference on the non-inverting input.
  netlist.add<circuit::VoltageSource>(plus, gnd, opts.v_ref_mid);
  netlist.name_last(opts.prefix + "VMID");

  // Two non-overlapping phases: phase 1 samples, phase 2 transfers.
  const double half = opts.clock_period / 2.0;
  const double high = 0.9 * half;
  const ClockWave phi1(opts.clock_period, high, 0.0);
  const ClockWave phi2(opts.clock_period, high, half);

  // S1 (phase 1): input -> Cs top plate.   S2 (phase 2): Cs top -> summing.
  netlist.add<circuit::TimedSwitch>(in, st, phi1, opts.r_on);
  netlist.name_last(opts.prefix + "S1");
  netlist.add<circuit::TimedSwitch>(st, sum, phi2, opts.r_on);
  netlist.name_last(opts.prefix + "S2");

  // Sampling capacitor referenced to the mid-rail line so the transferred
  // charge is Cs (vin - v_mid).
  netlist.add<circuit::Capacitor>(st, plus, opts.cs);
  netlist.name_last(opts.prefix + "CS");
  // Integration capacitor around the op-amp.
  netlist.add<circuit::Capacitor>(sum, out, opts.cf);
  netlist.name_last(opts.prefix + "CF");
  // DC-defining feedback path (see ScIntegratorBuildOptions::dc_feedback_r).
  if (opts.dc_feedback_r > 0) {
    netlist.add<circuit::Resistor>(sum, out, opts.dc_feedback_r);
    netlist.name_last(opts.prefix + "RF");
  }

  return nodes;
}

}  // namespace msbist::analog
