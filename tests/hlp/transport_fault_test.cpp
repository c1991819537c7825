// Wire-transport failures surfacing through the HLP stack: a killed PSN
// exhausts the NIC's retry budget, the QP error reaches the endpoint
// (qp_in_error / tx_errors), the application reconnects and resends, and
// the receiver's MPI-level wait completes as if nothing happened. Random
// duplication and reordering on the wire stay below the MPI layer.

#include <gtest/gtest.h>

#include <vector>

#include "hlp/mpi.hpp"
#include "nic/nic.hpp"
#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

namespace bb::hlp {
namespace {

using scenario::MpiStack;
using scenario::Testbed;

TEST(HlpTransportFault, SenderQpErrorSurfacesReconnectResendsDelivers) {
  // Kill every attempt of node 0's first data packet (PSN 1).
  fault::WireFaultConfig w;
  w.scheduled.push_back({fault::WireOneShot::Kind::kKillData, 0, 1});
  auto cfg = scenario::presets::deterministic().with(
      scenario::overlays::wire_faults(w));
  cfg.ucp.signal_period = 1;
  Testbed tb(cfg);
  MpiStack a(tb, 0);
  MpiStack b(tb, 1);
  tb.node(0).nic.post_receives(16);
  tb.node(1).nic.post_receives(16);

  // Sender: the eager isend completes locally (UCX semantics), but the
  // wire never delivers it. Detect the QP error at the endpoint, run the
  // recovery ladder, and resend.
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    (void)co_await st.mpi().isend(8);
    while (!st.endpoint().qp_in_error()) {
      co_await st.node().worker.progress();
    }
    // Drain the flushed error CQE (it still crosses PCIe and a poll):
    // it retires the op with an error status at the llp layer.
    while (st.endpoint().tx_errors() == 0) {
      co_await st.node().worker.progress();
    }
    EXPECT_EQ(st.endpoint().tx_errors(), 1u);
    EXPECT_EQ(co_await st.endpoint().reconnect(), llp::Status::kOk);
    EXPECT_FALSE(st.endpoint().qp_in_error());
    (void)co_await st.mpi().isend(8);  // PSN 2: delivered
  }(a));

  // Receiver: one blocking wait; it simply takes ~0.4 ms longer than a
  // healthy run while the sender recovers.
  common::Status recv_status = common::Status::kIoError;
  tb.sim().spawn([](MpiStack& st, common::Status& out) -> sim::Task<void> {
    Request* r = st.mpi().irecv(8).value();
    out = co_await st.mpi().wait(r);
  }(b, recv_status));

  tb.sim().run();
  EXPECT_EQ(recv_status, common::Status::kOk);
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 8u);

  const net::TransportStats s = tb.net_stats();
  EXPECT_EQ(s.qp_errors, 1u);
  EXPECT_EQ(s.qp_recoveries, 1u);
  EXPECT_GT(s.retry_timer_firings, 0u);
  EXPECT_EQ(tb.node(0).nic.tx_unacked(), 0u);
}

// The probabilistic wire faults under a two-node eager MPI exchange: a
// duplicated packet is discarded by PSN, a reordered one leaves a PSN gap
// that is NAKed and resent, and every message still completes once.
class HlpWireFault : public ::testing::TestWithParam<bool> {};

TEST_P(HlpWireFault, EagerExchangeCompletesEveryMessageOnce) {
  constexpr int kMsgs = 200;
  const bool duplicate = GetParam();
  fault::WireFaultConfig w;
  (duplicate ? w.duplicate_prob : w.reorder_prob) = 0.05;
  auto cfg = scenario::presets::deterministic().with(
      scenario::overlays::wire_faults(w));
  cfg.seed = 7;
  Testbed tb(cfg);
  MpiStack a(tb, 0);
  MpiStack b(tb, 1);
  tb.node(0).nic.post_receives(kMsgs);
  tb.node(1).nic.post_receives(kMsgs);

  const auto rank = [](MpiStack& st) -> sim::Task<void> {
    std::vector<Request*> recvs, sends;
    for (int i = 0; i < kMsgs; ++i) recvs.push_back(st.mpi().irecv(8).value());
    for (int i = 0; i < kMsgs; ++i) {
      sends.push_back((co_await st.mpi().isend(8)).value());
    }
    EXPECT_EQ(co_await st.mpi().waitall(sends), common::Status::kOk);
    EXPECT_EQ(co_await st.mpi().waitall(recvs), common::Status::kOk);
  };
  tb.sim().spawn(rank(a));
  tb.sim().spawn(rank(b));
  tb.sim().run();

  for (int n = 0; n < 2; ++n) {
    MpiStack& st = n == 0 ? a : b;
    EXPECT_EQ(st.ucp().sends_completed(), std::uint64_t{kMsgs}) << n;
    EXPECT_EQ(st.ucp().recvs_completed(), std::uint64_t{kMsgs}) << n;
    EXPECT_EQ(tb.node(n).worker.rx_completions(), std::uint64_t{kMsgs}) << n;
    EXPECT_EQ(tb.node(n).host.payload_bytes_delivered(),
              std::uint64_t{8 * kMsgs}) << n;
    EXPECT_EQ(tb.node(n).nic.tx_unacked(), 0u) << n;
  }
  const net::TransportStats s = tb.net_stats();
  EXPECT_GT(duplicate ? s.packets_duplicated : s.packets_reordered, 0u);
  EXPECT_GT(s.duplicates_discarded + s.naks_sent, 0u);
  EXPECT_EQ(s.packets_sent + s.packets_duplicated,
            s.packets_delivered + s.packets_dropped + s.packets_corrupted);
}

INSTANTIATE_TEST_SUITE_P(
    Probabilistic, HlpWireFault, ::testing::Values(true, false),
    [](const ::testing::TestParamInfo<bool>& p) {
      return p.param ? "Duplicate" : "Reorder";
    });

}  // namespace
}  // namespace bb::hlp
