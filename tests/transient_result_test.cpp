// circuit::TransientResult storage: one sample-major state block per run,
// read through strided WaveformViews resolved by a shared WaveformLayout.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <ranges>
#include <stdexcept>
#include <vector>

#include "circuit/elements.h"
#include "circuit/netlist.h"
#include "circuit/transient.h"

namespace msbist::circuit {
namespace {

static_assert(std::random_access_iterator<WaveformView::iterator>);
static_assert(std::ranges::random_access_range<WaveformView>);
static_assert(std::ranges::sized_range<WaveformView>);

constexpr std::size_t kSteps = 20;

/// 1 V source through 1 kOhm into 1 uF: two nodes and one branch, so the
/// state block is 3 unknowns wide.
TransientResult rc_run() {
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(in, kGround, 1.0);
  n.name_last("VIN");
  n.add<Resistor>(in, out, 1e3);
  n.add<Capacitor>(out, kGround, 1e-6);
  TransientOptions opts;
  opts.dt = 50e-6;
  opts.t_stop = opts.dt * kSteps;
  opts.use_initial_conditions = true;
  opts.method = Integration::kBackwardEuler;
  return transient(n, opts);
}

TEST(TransientResult, ViewIteratorsAreRandomAccess) {
  const TransientResult r = rc_run();
  ASSERT_EQ(r.samples(), kSteps + 1);
  ASSERT_EQ(r.layout()->unknowns, 3u);
  const WaveformView v = r.voltage("out");
  ASSERT_EQ(v.size(), r.samples());

  const auto b = v.begin();
  const auto e = v.end();
  EXPECT_EQ(e - b, static_cast<std::ptrdiff_t>(v.size()));
  EXPECT_EQ(*(b + 3), v[3]);
  EXPECT_EQ(*(3 + b), v[3]);
  EXPECT_EQ((b + 5)[2], v[7]);
  EXPECT_EQ(*(e - 1), v.back());
  EXPECT_EQ(*std::prev(e), v.back());
  EXPECT_EQ(*b, v.front());
  EXPECT_LT(b, e);
  EXPECT_EQ(std::next(b, static_cast<std::ptrdiff_t>(v.size())), e);
  auto it = b;
  it += 4;
  EXPECT_EQ(it - b, 4);
  it -= 1;
  EXPECT_EQ(*it, v[3]);
  EXPECT_EQ(*it++, v[3]);
  EXPECT_EQ(*it, v[4]);
  EXPECT_EQ(*--it, v[3]);

  // The capacitor charges monotonically from its 0 V initial condition.
  EXPECT_LT(v.front(), 0.1);
  EXPECT_TRUE(std::ranges::is_sorted(v));
  EXPECT_GT(v.back(), 0.6);

  const std::vector<double> copy(v.begin(), v.end());
  EXPECT_TRUE(std::ranges::equal(copy, v));
}

TEST(TransientResult, ViewsStrideThroughTheStateBlock) {
  const TransientResult r = rc_run();
  const WaveformView in = r.voltage("in");
  const WaveformView out = r.voltage("out");
  const WaveformView i = r.current("VIN");
  for (std::size_t k = 0; k < r.samples(); ++k) {
    EXPECT_EQ(in[k], 1.0) << "sample " << k;
    // One branch, one series path: the source carries the resistor
    // current (flowing pos -> through the source -> neg is negative),
    // plus the 1e-12 S gmin on its node.
    EXPECT_NEAR(i[k], -(in[k] - out[k]) / 1e3, 1e-11) << "sample " << k;
  }
  EXPECT_EQ(r.branch_names(), std::vector<std::string>{"VIN"});
}

TEST(TransientResult, GroundIsSamplesZeros) {
  const TransientResult r = rc_run();
  for (const char* g : {"0", "gnd", "GND"}) {
    const WaveformView z = r.voltage(g);
    EXPECT_EQ(z.size(), r.samples()) << g;
    EXPECT_TRUE(std::ranges::all_of(z, [](double x) { return x == 0.0; })) << g;
  }
}

TEST(TransientResult, UnknownNamesThrow) {
  const TransientResult r = rc_run();
  EXPECT_THROW((void)r.voltage("nope"), std::out_of_range);
  EXPECT_THROW((void)r.current("nope"), std::out_of_range);
  // Node and branch names live in separate maps.
  EXPECT_THROW((void)r.current("out"), std::out_of_range);
  EXPECT_THROW((void)r.voltage("VIN"), std::out_of_range);
}

TEST(TransientResult, BlockMustMatchItsLayout) {
  const TransientResult r = rc_run();
  std::vector<double> short_block(r.samples() * r.layout()->unknowns - 1, 0.0);
  EXPECT_THROW(TransientResult(r.layout(), std::move(short_block)),
               std::invalid_argument);
}

}  // namespace
}  // namespace msbist::circuit
