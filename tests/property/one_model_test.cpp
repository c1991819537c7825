// Property: the paper's Table-1 models (core) and the pt2pt alpha-beta
// model (model::PtPtModel) decompose an 8-byte message from the same
// SystemConfig. Their CPU terms agree on every PIO+inline machine; their
// transit terms differ by design. The MPI stack's settings
// (SystemConfig::ucp) reach every stack and both models.

#include <gtest/gtest.h>

#include "coll/communicator.hpp"
#include "core/models.hpp"
#include "model/alpha_beta.hpp"
#include "scenario/config.hpp"
#include "scenario/mpi_stack.hpp"

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

TEST(OneModel, UcpSettingsReachEveryConsumer) {
  auto cfg = scenario::presets::deterministic();
  cfg.ucp = {.signal_period = 8, .rndv_threshold = 256};

  // The two-node stacks: the endpoint signals every 8th send, and 512 B
  // is above the threshold, so the send goes rendezvous.
  scenario::Testbed tb(cfg);
  scenario::MpiStack a(tb, 0);
  scenario::MpiStack b(tb, 1);
  EXPECT_EQ(a.endpoint().config().signal_period, 8u);
  tb.node(0).nic.post_receives(8);
  tb.node(1).nic.post_receives(8);
  tb.sim().spawn([](hlp::MpiComm& mpi) -> sim::Task<void> {
    hlp::Request* s = (co_await mpi.isend(512)).value();
    co_await mpi.wait(s);
  }(a.mpi()));
  tb.sim().spawn([](hlp::MpiComm& mpi) -> sim::Task<void> {
    co_await mpi.wait(mpi.irecv(512).value());
  }(b.mpi()));
  tb.sim().run();
  EXPECT_EQ(a.ucp().rndv_sends(), 1u);

  // Every endpoint of a 3-node World.
  scenario::Testbed cl(cfg, 3);
  coll::World world(cl);
  for (int r = 0; r < world.size(); ++r) {
    for (int p = 0; p < world.size(); ++p) {
      if (p == r) continue;
      EXPECT_EQ(world.comm(r).ucp().endpoint(p).config().signal_period, 8u)
          << r << "->" << p;
    }
  }

  // Both models: Eq. 2 amortizes LLP_prog over 8, and PtPtModel's 512 B
  // message pays the rendezvous control round trip.
  EXPECT_EQ(core::ComponentTable::from_config(cfg).completion_period, 8.0);
  auto eager = cfg;
  eager.ucp.rndv_threshold = 1024;
  EXPECT_GT(model::PtPtModel(cfg).msg_ns(512) -
                model::PtPtModel(eager).msg_ns(512),
            500.0);
}

}  // namespace
}  // namespace bb
