// Property: the what-if engine's predictions equal re-evaluating the
// analytical model on the correspondingly modified configuration --
// i.e., predicted and "executed" optimizations agree exactly at the
// model level, for every component and every reduction.

#include <gtest/gtest.h>

#include "core/whatif.hpp"
#include "scenario/config.hpp"

namespace bb::core {
namespace {

class WhatIfSweep : public ::testing::TestWithParam<double> {};

TEST_P(WhatIfSweep, PioPredictionMatchesModifiedConfig) {
  const double reduction = GetParam();
  const auto base_cfg = scenario::presets::thunderx2_cx4();
  const auto base = ComponentTable::from_config(base_cfg);
  const WhatIf w(base);

  auto fast = base_cfg;
  fast.cpu.pio_copy_64b.mean_ns *= (1.0 - reduction);
  const double base_lat = LatencyModel(base).e2e_latency_ns();
  const double new_lat =
      LatencyModel(ComponentTable::from_config(fast)).e2e_latency_ns();

  EXPECT_NEAR((base_lat - new_lat) / base_lat,
              WhatIf::speedup(base.pio_copy, reduction, base_lat), 1e-12);
}

TEST_P(WhatIfSweep, SwitchPredictionMatchesModifiedConfig) {
  const double reduction = GetParam();
  const auto base_cfg = scenario::presets::thunderx2_cx4();
  const auto base = ComponentTable::from_config(base_cfg);

  auto fast = base_cfg;
  fast.net.switch_latency_ns *= (1.0 - reduction);
  const double base_lat = LatencyModel(base).e2e_latency_ns();
  const double new_lat =
      LatencyModel(ComponentTable::from_config(fast)).e2e_latency_ns();

  EXPECT_NEAR((base_lat - new_lat) / base_lat,
              WhatIf::speedup(base.switch_lat, reduction, base_lat), 1e-12);
}

TEST_P(WhatIfSweep, IntegratedNicPresetMatchesPrediction) {
  const double reduction = GetParam();
  const auto base = ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const WhatIf w(base);

  const auto soc = ComponentTable::from_config(
      scenario::presets::thunderx2_cx4().with(
          scenario::overlays::integrated_nic(reduction)));
  const double base_lat = LatencyModel(base).e2e_latency_ns();
  const double new_lat = LatencyModel(soc).e2e_latency_ns();

  // The preset scales PCIe and RC-to-MEM; prediction uses the aggregate
  // I/O component. Small deviation allowed: the preset scales the link
  // base (which also carries the Ack-path asymmetry of measured PCIe).
  EXPECT_NEAR((base_lat - new_lat) / base_lat,
              w.integrated_nic_latency_speedup(reduction), 0.005);
}

INSTANTIATE_TEST_SUITE_P(ReductionGrid, WhatIfSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

TEST(WhatIfPanels, EveryCurveCellIsConsistent) {
  const auto t = ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const WhatIf w(t);
  for (const auto& panel : {w.injection_cpu(), w.latency_cpu(),
                            w.latency_io(), w.latency_network()}) {
    for (const auto& curve : panel.curves) {
      ASSERT_EQ(curve.reductions.size(), curve.speedups.size());
      for (std::size_t i = 0; i < curve.speedups.size(); ++i) {
        EXPECT_NEAR(curve.speedups[i],
                    curve.reductions[i] * curve.component_ns /
                        panel.base_total_ns,
                    1e-12);
        EXPECT_GE(curve.speedups[i], 0.0);
        EXPECT_LT(curve.speedups[i], 1.0);
      }
    }
  }
}

TEST(WhatIfPanels, InjectionComponentsNestCorrectly) {
  // HLP = HLP_post + HLP_tx_prog and LLP = LLP_post + LLP_tx_prog: the
  // aggregate curves must equal the sum of their parts at every point.
  const auto t = ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const WhatIf w(t);
  const auto p = w.injection_cpu();
  auto curve = [&](const std::string& name) -> const WhatIfCurve& {
    for (const auto& c : p.curves) {
      if (c.component == name) return c;
    }
    throw std::runtime_error("missing curve " + name);
  };
  for (std::size_t i = 0; i < WhatIf::standard_grid().size(); ++i) {
    EXPECT_NEAR(curve("HLP").speedups[i],
                curve("HLP_post").speedups[i] +
                    curve("HLP_tx_prog").speedups[i],
                1e-12);
    EXPECT_NEAR(curve("LLP").speedups[i],
                curve("LLP_post").speedups[i] +
                    curve("LLP_tx_prog").speedups[i],
                1e-12);
  }
}

TEST(WhatIfPanels, EveryListRowMatchesThePanelRowsWithItsLabel) {
  // The panels and `bbsim whatif` read one component list: wherever a
  // panel plots a row's label, it plots that row's ns for the panel's
  // metric, and a row is plotted exactly where its panel bits say.
  for (const auto& t : {ComponentTable::paper(),
                        ComponentTable::from_config(
                            scenario::presets::thunderx2_cx4())}) {
    const WhatIf w(t);
    const WhatIfPanel panels[] = {w.injection_cpu(), w.latency_cpu(),
                                  w.latency_io(), w.latency_network()};
    for (const auto& row : w.components()) {
      for (unsigned i = 0; i < 4; ++i) {
        const Metric m = i == 0 ? Metric::kInjection : Metric::kLatency;
        int seen = 0;
        for (const auto& curve : panels[i].curves) {
          if (curve.component != row.label) continue;
          ++seen;
          EXPECT_EQ(curve.component_ns, row.ns(m)) << row.key << " in " << i;
        }
        EXPECT_EQ(seen, (row.panels >> i) & 1u) << row.key << " in " << i;
        if (seen) {
          EXPECT_GT(row.ns(m), 0.0) << row.key;
        }
      }
    }
  }
}

TEST(WhatIfPanels, SpotChecksAreListLookups) {
  const auto t = ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const WhatIf w(t);
  const double inj = w.base_ns(Metric::kInjection);
  const double lat = w.base_ns(Metric::kLatency);
  // Eq. 2 holds LLP_prog only as its per-op share LLP_prog / c.
  EXPECT_EQ(w.find("llp_prog")->injection_ns, t.llp_tx_prog());
  EXPECT_EQ(w.find("llp_prog")->latency_ns, t.llp_prog);
  EXPECT_NEAR(w.speedup_of("llp_prog", Metric::kInjection, 0.5) * 100.0, 0.18,
              0.005);
  EXPECT_EQ(w.hlp_injection_speedup(0.2),
            WhatIf::speedup(t.hlp_post() + t.hlp_tx_prog, 0.2, inj));
  EXPECT_EQ(w.llp_injection_speedup(0.2),
            WhatIf::speedup(t.llp_post() + t.llp_tx_prog(), 0.2, inj));
  EXPECT_EQ(w.integrated_nic_latency_speedup(0.5),
            WhatIf::speedup(2.0 * t.pcie + t.rc_to_mem_8b, 0.5, lat));
  EXPECT_NEAR(w.hlp_injection_speedup(0.2) * 100.0, 6.45, 0.005);
  EXPECT_NEAR(w.llp_injection_speedup(0.2) * 100.0, 13.31, 0.005);
  EXPECT_EQ(w.find("nosuch"), nullptr);
}

}  // namespace
}  // namespace bb::core
