// The credit gate in front of a PCIe transmitter: FIFO issue under
// starved budgets, exact stall counts, the same-picosecond drain order,
// and an allocation-free steady state.
//
// This binary links the counting global `operator new`/`delete` hooks
// (tests/support/alloc_counter.hpp); it is kept separate from `test_pcie`
// so the hooks cannot perturb other tests.

#include "pcie/credit_gate.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "alloc_counter.hpp"

namespace bb::pcie {
namespace {

using namespace bb::literals;

Tlp mwr(std::uint32_t bytes, std::uint64_t tag) {
  Tlp t;
  t.type = TlpType::kMemWrite;
  t.bytes = bytes;
  t.tag = tag;
  return t;
}

Tlp mrd(std::uint64_t tag) {
  Tlp t;
  t.type = TlpType::kMemRead;
  t.tag = tag;
  return t;
}

/// A downstream gate with room for exactly one 64 B posted write and one
/// non-posted request; the NIC end logs the tags it receives.
struct GateFixture {
  sim::Simulator sim;
  Link link{sim, LinkParams{}};
  CreditGate gate{sim, link, Direction::kDownstream,
                  CreditState::with_budget({1, 4}, {1, 1}, {1, 4})};
  CreditLedger ledger;  // the receiver's released-credit totals
  std::vector<std::uint64_t> tags;

  GateFixture() {
    link.set_b_tlp_handler([this](const Tlp& t) { tags.push_back(t.tag); });
  }
};

TEST(CreditGate, BlockedHeadHoldsBackLaterTlpsThatWouldFit) {
  GateFixture f;
  f.gate.send(mwr(64, 1));
  f.gate.send(mwr(64, 2));  // no posted header credit left
  f.gate.send(mrd(3));      // non-posted credits remain, yet it waits
  f.sim.run();
  EXPECT_EQ(f.tags, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(f.gate.credits().available(CreditClass::kNonPosted).header, 1u);

  f.gate.replenish(f.ledger.release_for(mwr(64, 1)));
  f.sim.run();
  EXPECT_EQ(f.tags, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(f.gate.issued(), 3u);
}

TEST(CreditGate, CountsEveryShortHeadAndResumesInOrder) {
  GateFixture f;
  f.gate.send(mrd(10));  // takes the one non-posted credit
  for (std::uint64_t tag = 1; tag <= 3; ++tag) f.gate.send(mwr(64, tag));
  f.sim.run();
  EXPECT_EQ(f.tags, (std::vector<std::uint64_t>{10, 1}));
  EXPECT_EQ(f.gate.stalls(), 1u);

  // One posted credit back: the head goes, the next one is short again.
  f.gate.replenish(f.ledger.release_for(mwr(64, 1)));
  f.sim.run();
  EXPECT_EQ(f.tags, (std::vector<std::uint64_t>{10, 1, 2}));
  EXPECT_EQ(f.gate.stalls(), 2u);

  // Credits of another class retry the head, which is still short.
  f.gate.replenish(f.ledger.release_for(mrd(10)));
  f.sim.run();
  EXPECT_EQ(f.tags, (std::vector<std::uint64_t>{10, 1, 2}));
  EXPECT_EQ(f.gate.stalls(), 3u);

  f.gate.replenish(f.ledger.release_for(mwr(64, 2)));
  f.sim.run();
  EXPECT_EQ(f.tags, (std::vector<std::uint64_t>{10, 1, 2, 3}));
  EXPECT_EQ(f.gate.stalls(), 3u);
  EXPECT_EQ(f.gate.issued(), 4u);

  // With nothing queued, an UpdateFC only restores credits.
  f.gate.replenish(f.ledger.release_for(mwr(64, 3)));
  EXPECT_TRUE(f.sim.idle());
}

TEST(CreditGate, DrainRunsAfterEventsAlreadyDueThisPicosecond) {
  GateFixture f;
  std::vector<int> order;
  TimePs arrived = TimePs::zero();
  f.link.set_b_tlp_handler([&](const Tlp&) { arrived = f.sim.now(); });
  f.sim.call_at(100_ns, [&] {
    f.gate.send(mwr(64, 1));
    // Never sent in the caller's event.
    EXPECT_EQ(f.gate.issued(), 0u);
    order.push_back(0);
  });
  f.sim.call_at(100_ns, [&] {
    // Scheduled before the send, so it runs before the drain.
    EXPECT_EQ(f.gate.issued(), 0u);
    order.push_back(1);
  });
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(f.gate.issued(), 1u);
  EXPECT_EQ(arrived, 100_ns + f.link.params().tlp_latency(64));
}

TEST(CreditGate, WarmSendReplenishCycleAllocatesNothing) {
  GateFixture f;
  // The receiver returns each TLP's credits over the link, so the gate
  // stalls and resumes once per TLP.
  f.link.set_b_tlp_handler([&f](const Tlp& t) {
    f.tags.push_back(t.tag);
    f.link.send_dllp_upstream(f.ledger.release_for(t));
  });
  f.link.set_a_dllp_handler([&f](const Dllp& d) {
    if (d.type == DllpType::kUpdateFC) f.gate.replenish(d);
  });
  f.tags.reserve(9 * 64);
  const auto wave = [&f] {
    for (std::uint64_t tag = 0; tag < 64; ++tag) f.gate.send(mwr(64, tag));
    f.sim.run();
  };
  wave();  // warm: grows the FIFO, the event pool and the queues once
  const std::uint64_t stalls = f.gate.stalls();
  const std::uint64_t allocs = support::heap_allocs();
  for (int w = 0; w < 8; ++w) wave();
  EXPECT_EQ(support::heap_allocs(), allocs) << "send/replenish allocated";
  EXPECT_EQ(f.tags.size(), 9u * 64u);
  EXPECT_EQ(f.gate.stalls() - stalls, 8u * 63u);
}

}  // namespace
}  // namespace bb::pcie
