// Cross-stack integration: scenarios that exercise several modules at
// once in ways no single-module test does.

#include <gtest/gtest.h>

#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

namespace bb {
namespace {

using scenario::MpiStack;
using scenario::Testbed;
using namespace bb::literals;

TEST(FullStack, BidirectionalMpiStress) {
  // Both ranks send and receive concurrently; everything must drain.
  Testbed tb(scenario::presets::thunderx2_cx4());
  MpiStack a(tb, 0);
  MpiStack b(tb, 1);
  constexpr int kMsgs = 200;
  tb.node(0).nic.post_receives(kMsgs + 4);
  tb.node(1).nic.post_receives(kMsgs + 4);

  auto rank = [](MpiStack& st, int n) -> sim::Task<void> {
    std::vector<hlp::Request*> recvs;
    for (int i = 0; i < n; ++i) recvs.push_back(st.mpi().irecv(8).value());
    std::vector<hlp::Request*> sends;
    for (int i = 0; i < n; ++i) {
      sends.push_back((co_await st.mpi().isend(8)).value());
      if (i % 16 == 15) co_await st.ucp().progress();
    }
    co_await st.mpi().waitall(sends);
    for (hlp::Request* r : recvs) co_await st.mpi().wait(r);
  };
  tb.sim().spawn(rank(a, kMsgs));
  tb.sim().spawn(rank(b, kMsgs));
  tb.sim().run();

  EXPECT_EQ(a.ucp().recvs_completed(), static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(b.ucp().recvs_completed(), static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(tb.node(0).nic.messages_injected(),
            static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(tb.node(1).nic.messages_injected(),
            static_cast<std::uint64_t>(kMsgs));
}

TEST(FullStack, MixedUctAndMpiTrafficShareTheNic) {
  // A raw UCT endpoint (one-sided puts) and a full MPI stack (two-sided)
  // drive the same node's NIC on different QPs.
  Testbed tb(scenario::presets::deterministic());
  MpiStack mpi(tb, 0);
  llp::EndpointConfig raw_cfg = tb.config().endpoint;
  raw_cfg.qp = 9;
  auto& raw = tb.add_endpoint(0, raw_cfg);
  tb.node(1).nic.post_receives(64);

  tb.sim().spawn([](Testbed& t, MpiStack& st,
                    llp::Endpoint& r) -> sim::Task<void> {
    for (int i = 0; i < 16; ++i) {
      (void)co_await st.mpi().isend(8);
      while (co_await r.put_short(8) != llp::Status::kOk) {
        co_await t.node(0).worker.progress();
      }
    }
    // Retire the unsignalled tails (16 < the moderation period of 64).
    (void)co_await r.flush();
    (void)co_await st.endpoint().flush();
    while (r.outstanding() > 0 || st.endpoint().outstanding() > 0) {
      co_await t.node(0).worker.progress();
    }
  }(tb, mpi, raw));
  tb.sim().run();

  // 32 data messages + 2 zero-byte flush no-ops.
  EXPECT_EQ(tb.node(0).nic.messages_injected(), 34u);
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 32u * 8u);
  // Only the sends produced RX completions.
  EXPECT_EQ(tb.node(1).host.rx_cq().depth(), 16u);
}

TEST(FullStack, LongRunDeterminism) {
  // Identical seeds produce bit-identical timelines end to end.
  auto run = [] {
    auto cfg = scenario::presets::thunderx2_cx4();
    cfg.seed = 1234;
    Testbed tb(cfg);
    auto& ep = tb.add_endpoint(0);
    tb.sim().spawn([](Testbed& t, llp::Endpoint& e) -> sim::Task<void> {
      for (int i = 0; i < 500; ++i) {
        while (co_await e.put_short(8) != llp::Status::kOk) {
          co_await t.node(0).worker.progress(1);
        }
        if (i % 16 == 0) co_await t.node(0).worker.progress(1);
      }
      while (e.outstanding() > 0) co_await t.node(0).worker.progress();
    }(tb, ep));
    tb.sim().run();
    return std::pair{tb.sim().now().ps(), tb.sim().events_processed()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(FullStack, AnalyzerSeesEveryLayerOfOneSend) {
  // One MPI message: the trace must contain the PIO post (down), the
  // payload write (up, at the target it is the *target's* link -- so on
  // node 0 we see only our own traffic: post + CQE) and their DLLPs.
  auto cfg = scenario::presets::deterministic();
  cfg.ucp.signal_period = 1;
  Testbed tb(cfg);
  MpiStack a(tb, 0);
  tb.node(1).nic.post_receives(2);
  tb.sim().spawn([](Testbed& t, MpiStack& st) -> sim::Task<void> {
    (void)co_await st.mpi().isend(8);
    while (st.endpoint().outstanding() > 0) {
      co_await t.node(0).worker.progress();
    }
  }(tb, a));
  tb.sim().run();

  const auto& trace = tb.analyzer().trace();
  EXPECT_EQ(trace.downstream_writes(64).size(), 1u);  // the PIO post
  EXPECT_EQ(trace.upstream_writes(64).size(), 1u);    // the CQE
  const auto acks = trace.filter([](const pcie::TraceRecord& r) {
    return r.is_dllp && r.dllp_type == pcie::DllpType::kAck;
  });
  EXPECT_GE(acks.size(), 2u);  // one per TLP
  const auto fcs = trace.filter([](const pcie::TraceRecord& r) {
    return r.is_dllp && r.dllp_type == pcie::DllpType::kUpdateFC;
  });
  EXPECT_GE(fcs.size(), 2u);  // credits returned both ways
}

TEST(FullStack, HiccupTailSurfacesInLongRuns) {
  // The rare OS hiccup must appear in a long put_bw-style run (Fig. 7's
  // max is ~two orders above the mean).
  auto cfg = scenario::presets::thunderx2_cx4();
  cfg.seed = 7;
  Testbed tb(cfg);
  auto& ep = tb.add_endpoint(0);
  double max_gap = 0;
  tb.sim().spawn([](Testbed& t, llp::Endpoint& e, double& out) -> sim::Task<void> {
    double prev = 0;
    for (int i = 0; i < 20000; ++i) {
      while (co_await e.put_short(8) != llp::Status::kOk) {
        co_await t.node(0).worker.progress(1);
      }
      t.node(0).core.consume(t.node(0).core.costs().loop_exp_noise);
      t.node(0).core.consume(t.node(0).core.costs().loop_hiccup);
      const double now = t.node(0).core.virtual_now().to_ns();
      if (prev > 0) out = std::max(out, now - prev);
      prev = now;
      if (i % 16 == 0) co_await t.node(0).worker.progress(1);
    }
    while (e.outstanding() > 0) co_await t.node(0).worker.progress();
  }(tb, ep, max_gap));
  tb.analyzer().set_enabled(false);
  tb.sim().run();
  EXPECT_GT(max_gap, 1000.0);  // at least one hiccup in 20k iterations
}

}  // namespace
}  // namespace bb
