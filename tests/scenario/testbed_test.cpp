#include "scenario/testbed.hpp"

#include <gtest/gtest.h>

#include "scenario/mpi_stack.hpp"

namespace bb::scenario {
namespace {

TEST(Testbed, WiresTwoNodesAndAnalyzer) {
  Testbed tb(presets::deterministic());
  EXPECT_EQ(tb.node(0).nic.node_id(), 0);
  EXPECT_EQ(tb.node(1).nic.node_id(), 1);
  EXPECT_TRUE(tb.analyzer().enabled());
  EXPECT_EQ(tb.analyzer().trace().size(), 0u);
}

TEST(Testbed, SeedPropagatesToSimulator) {
  auto cfg = presets::deterministic();
  cfg.seed = 99;
  Testbed a(cfg), b(cfg);
  EXPECT_EQ(a.sim().rng().next_u64(), b.sim().rng().next_u64());
}

TEST(Testbed, EndpointUsesConfigTemplate) {
  auto cfg = presets::deterministic();
  cfg.endpoint.txq_depth = 7;
  Testbed tb(cfg);
  EXPECT_EQ(tb.add_endpoint(0).config().txq_depth, 7u);
  llp::EndpointConfig override_cfg = cfg.endpoint;
  override_cfg.txq_depth = 3;
  EXPECT_EQ(tb.add_endpoint(0, override_cfg).config().txq_depth, 3u);
}

TEST(Testbed, AddCoreCreatesIndependentWorkers) {
  Testbed tb(presets::deterministic());
  auto& wc1 = tb.add_core(0);
  auto& wc2 = tb.add_core(0);
  EXPECT_NE(&wc1.core, &wc2.core);
  EXPECT_NE(&wc1.worker, &wc2.worker);
  // Endpoints created on extra cores get distinct QPs automatically.
  auto& e1 = tb.add_endpoint(wc1, 0);
  auto& e2 = tb.add_endpoint(wc2, 0);
  EXPECT_NE(e1.config().qp, e2.config().qp);
}

TEST(Testbed, ProfilerWiredIntoWorker) {
  Testbed tb(presets::deterministic());
  EXPECT_EQ(tb.node(0).worker.profiler(), &tb.node(0).profiler);
}

TEST(MpiStack, BundlesFullStack) {
  Testbed tb(presets::deterministic());
  MpiStack s(tb, 0);
  EXPECT_EQ(&s.ucp().endpoint(), &s.endpoint());
  EXPECT_EQ(&s.mpi().ucp(), &s.ucp());
  // UCX default signalling: one CQE per 64 ops.
  EXPECT_EQ(s.endpoint().config().signal_period, 64u);
  auto cfg = presets::deterministic();
  cfg.ucp.signal_period = 8;
  Testbed tb8(cfg);
  MpiStack s2(tb8, 1);
  EXPECT_EQ(s2.endpoint().config().signal_period, 8u);
}

TEST(Testbed, RdmaWriteSmokeAcrossAllPresets) {
  // Every preset must produce a working machine end to end.
  for (const auto& cfg : presets::all()) {
    Testbed tb(cfg);
    auto& ep = tb.add_endpoint(0);
    tb.sim().spawn([](Testbed& t, llp::Endpoint& e) -> sim::Task<void> {
      for (int i = 0; i < 8; ++i) {
        while (co_await e.put_short(8) != llp::Status::kOk) {
          co_await t.node(0).worker.progress();
        }
      }
      // Moderated presets leave an unsignalled tail; flush retires it.
      while (co_await e.flush() == llp::Status::kNoResource) {
        co_await t.node(0).worker.progress();
      }
      while (e.outstanding() > 0) co_await t.node(0).worker.progress();
    }(tb, ep));
    tb.sim().run();
    EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 64u)
        << "preset " << cfg.name;
  }
}

}  // namespace
}  // namespace bb::scenario
