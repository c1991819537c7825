#include "hlp/ucp.hpp"

#include <gtest/gtest.h>

#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

namespace bb::hlp {
namespace {

using scenario::MpiStack;
using scenario::Testbed;
using namespace bb::literals;

TEST(Ucp, ShortSendCompletesLocally) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack s(tb, 0);
  tb.node(1).nic.post_receives(4);
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    Request* r = (co_await st.ucp().tag_send_nb(8)).value();
    // Inlined short send: complete as soon as the LLP post succeeded.
    EXPECT_TRUE(r->complete);
    EXPECT_FALSE(r->pending);
  }(s));
  tb.sim().run();
  EXPECT_EQ(s.ucp().sends_completed(), 1u);
}

TEST(Ucp, SendCostIsUcpPlusLlp) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack s(tb, 0);
  tb.node(1).nic.post_receives(4);
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    (void)co_await st.ucp().tag_send_nb(8);
    // 2.19 (UCP) + 175.42 (LLP_post).
    EXPECT_NEAR(st.node().core.virtual_now().to_ns(), 177.61, 1e-6);
  }(s));
  tb.sim().run();
}

TEST(Ucp, BusyPostPendsAndProgressRetries) {
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.txq_depth = 1;
  cfg.ucp.signal_period = 1;
  Testbed tb(cfg);
  MpiStack s(tb, 0);
  tb.node(1).nic.post_receives(8);
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    Request* a = (co_await st.ucp().tag_send_nb(8)).value();
    Request* b = (co_await st.ucp().tag_send_nb(8)).value();
    EXPECT_TRUE(a->complete);
    EXPECT_FALSE(b->complete);
    EXPECT_TRUE(b->pending);
    EXPECT_EQ(st.ucp().pending_sends(), 1u);
    // Progress until the CQE frees the slot and the pending send runs.
    while (!b->complete) {
      co_await st.ucp().progress();
    }
    EXPECT_EQ(st.ucp().pending_sends(), 0u);
  }(s));
  tb.sim().run();
  EXPECT_EQ(s.endpoint().posted(), 2u);
}

TEST(Ucp, PendingSendsPreserveOrder) {
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.txq_depth = 1;
  cfg.ucp.signal_period = 1;
  Testbed tb(cfg);
  MpiStack tx(tb, 0);
  MpiStack rx(tb, 1);
  tb.node(1).nic.post_receives(16);
  std::vector<std::uint64_t> arrival_order;
  tb.node(1).worker.set_rx_handler(
      [&](const nic::Cqe& c) { arrival_order.push_back(c.msg_id); });

  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    std::vector<Request*> reqs;
    for (int i = 0; i < 4; ++i) {
      reqs.push_back((co_await st.ucp().tag_send_nb(8)).value());
    }
    for (Request* r : reqs) {
      while (!r->complete) co_await st.ucp().progress();
    }
  }(tx));
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    // Poll long enough to cover four serialized round trips (txq depth 1
    // forces each pending send to wait for the previous CQE).
    for (int i = 0; i < 1500; ++i) co_await st.ucp().progress();
  }(rx));
  tb.sim().run();
  ASSERT_EQ(arrival_order.size(), 4u);
  EXPECT_TRUE(std::is_sorted(arrival_order.begin(), arrival_order.end()));
}

TEST(Ucp, RecvMatchesInboundMessage) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack tx(tb, 0);
  MpiStack rx(tb, 1);
  tb.node(1).nic.post_receives(4);

  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    (void)co_await st.ucp().tag_send_nb(8);
  }(tx));
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    Request* r = st.ucp().tag_recv_nb(8).value();
    while (!r->complete) co_await st.ucp().progress();
    EXPECT_EQ(st.ucp().recvs_completed(), 1u);
  }(rx));
  tb.sim().run();
}

TEST(Ucp, UnexpectedMessageMatchedByLaterRecv) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack tx(tb, 0);
  MpiStack rx(tb, 1);
  tb.node(1).nic.post_receives(4);

  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    (void)co_await st.ucp().tag_send_nb(8);
  }(tx));
  tb.sim().spawn([](Testbed& t, MpiStack& st) -> sim::Task<void> {
    // Drain progress with no posted receive: the message goes unexpected.
    while (st.ucp().recvs_completed() == 0) {
      co_await st.ucp().progress();
      if (t.sim().now() > 5_us) break;
    }
    EXPECT_EQ(st.ucp().recvs_completed(), 0u);
    // A late recv matches the unexpected message immediately.
    Request* r = st.ucp().tag_recv_nb(8).value();
    EXPECT_TRUE(r->complete);
    EXPECT_EQ(st.ucp().recvs_completed(), 1u);
  }(tb, rx));
  tb.sim().run();
}

TEST(Ucp, RxCallbackChainChargesUcpThenUpper) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack tx(tb, 0);
  MpiStack rx(tb, 1);
  tb.node(1).nic.post_receives(4);
  double upper_called_at = -1;
  rx.ucp().set_upper_rx_callback([&](Request*) {
    upper_called_at = rx.node().core.virtual_now().to_ns();
    rx.node().core.consume(rx.node().core.costs().mpich_rx_callback);
  });

  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    (void)co_await st.ucp().tag_send_nb(8);
  }(tx));
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    Request* r = st.ucp().tag_recv_nb(8).value();
    while (!r->complete) co_await st.ucp().progress();
  }(rx));
  tb.sim().run();
  EXPECT_GT(upper_called_at, 0.0);
}

}  // namespace
}  // namespace bb::hlp
