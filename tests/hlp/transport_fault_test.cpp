// Wire-transport failures surfacing through the HLP stack: a killed PSN
// exhausts the NIC's retry budget, the QP error reaches the endpoint
// (qp_in_error / tx_errors), the application reconnects and resends, and
// the receiver's MPI-level wait completes as if nothing happened.

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace bb::hlp
