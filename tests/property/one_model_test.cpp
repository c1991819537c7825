// Property: the paper's Table-1 models (core) and the pt2pt alpha-beta
// model (model::PtPtModel) decompose an 8-byte message from the same
// SystemConfig. Their CPU terms agree on every PIO+inline machine; their
// transit terms differ by design.

#include <gtest/gtest.h>

#include "core/models.hpp"
#include "model/alpha_beta.hpp"
#include "scenario/config.hpp"

namespace bb {
namespace {

bool pio_inline(const scenario::SystemConfig& cfg) {
  return cfg.endpoint.use_pio && cfg.endpoint.inline_payload;
}

TEST(OneModel, CpuTermsAgreeOnEveryPioInlinePreset) {
  int checked = 0;
  for (const auto& cfg : scenario::presets::all()) {
    if (!pio_inline(cfg)) continue;
    const auto t = core::ComponentTable::from_config(cfg);
    const model::PtPtModel m(cfg);
    EXPECT_NEAR(t.hlp_post() + t.llp_post(), m.osend_ns(8), 1e-9) << cfg.name;
    EXPECT_NEAR(t.llp_prog + t.hlp_rx_prog(), m.orecv_ns(), 1e-9) << cfg.name;
    ++checked;
  }
  EXPECT_EQ(checked, 9);
}

TEST(OneModel, DoorbellDmaPostIsNotTable1s) {
  // Table 1's LLP_post is the PIO path; a DoorBell post rings an 8-byte
  // doorbell instead of copying 64-byte chunks.
  const auto cfg = scenario::presets::thunderx2_cx4().with(
      scenario::overlays::doorbell_dma());
  const auto t = core::ComponentTable::from_config(cfg);
  const model::PtPtModel m(cfg);
  EXPECT_NEAR(t.hlp_post() + t.llp_post(), 201.98, 1e-9);
  EXPECT_NEAR(m.osend_ns(8), 122.73, 1e-9);
}

TEST(OneModel, TransitGapIsTheSameOnEveryPioInlinePreset) {
  // PtPtModel's one-way time also carries NIC TX/RX processing and the
  // polling gap, which Table 1's latency equation leaves out: a constant
  // offset, whatever the overlay moves.
  for (const auto& cfg : scenario::presets::all()) {
    if (!pio_inline(cfg)) continue;
    const auto t = core::ComponentTable::from_config(cfg);
    const double e2e = core::LatencyModel(t).e2e_latency_ns();
    EXPECT_NEAR(model::PtPtModel(cfg).msg_ns(8) - e2e, 43.365, 1e-6)
        << cfg.name;
  }
}

}  // namespace
}  // namespace bb
