// Conservation and ordering invariants of the simulated hardware, checked
// under randomized traffic patterns. These hold for *every* run, not just
// calibrated ones -- a wrong simulator can still produce plausible means.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "scenario/testbed.hpp"

namespace bb {
namespace {

using scenario::Testbed;

struct TrafficResult {
  Testbed tb;
  std::uint64_t data_msgs = 0;  // 8-byte data messages
  std::uint64_t posted = 0;     // including the flush no-op, if any
  explicit TrafficResult(scenario::SystemConfig cfg) : tb(std::move(cfg)) {}
};

/// Random mixed traffic: puts and sends with random progress interleaving.
std::unique_ptr<TrafficResult> run_traffic(std::uint64_t seed,
                                           std::uint32_t signal_period) {
  auto cfg = scenario::presets::thunderx2_cx4();
  cfg.seed = seed;
  cfg.endpoint.signal_period = signal_period;
  // Depth must cover the moderation period or the queue deadlocks (the
  // endpoint asserts on such configs).
  cfg.endpoint.txq_depth = 128;
  auto res = std::make_unique<TrafficResult>(cfg);
  Testbed& tb = res->tb;
  tb.node(1).nic.post_receives(4096);

  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Testbed& t, llp::Endpoint& e, std::uint64_t sd,
                    TrafficResult* out) -> sim::Task<void> {
    Rng rng(sd);
    std::uint64_t sent = 0;
    while (sent < 600) {
      const bool am = rng.bernoulli(0.5);
      const llp::Status st = am ? co_await e.am_short(8)
                                : co_await e.put_short(8);
      if (st == llp::Status::kOk) {
        ++sent;
      }
      if (st == llp::Status::kNoResource || rng.bernoulli(0.2)) {
        co_await t.node(0).worker.progress(1 + rng.uniform_u64(4));
      }
    }
    // Retire the unsignalled tail with a flush, then drain.
    while (co_await e.flush() == llp::Status::kNoResource) {
      co_await t.node(0).worker.progress();
    }
    while (e.outstanding() > 0) {
      co_await t.node(0).worker.progress();
    }
    out->data_msgs = sent;
    out->posted = e.posted();
  }(tb, ep, seed * 7919, res.get()));
  tb.sim().run();
  return res;
}

class Invariants
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {
};

TEST_P(Invariants, EveryInjectedMessageIsAcked) {
  auto r = run_traffic(std::get<0>(GetParam()), std::get<1>(GetParam()));
  EXPECT_EQ(r->tb.node(0).nic.messages_injected(), r->posted);
  EXPECT_EQ(r->tb.node(0).nic.acks_received(), r->posted);
}

TEST_P(Invariants, PayloadBytesConserved) {
  auto r = run_traffic(std::get<0>(GetParam()), std::get<1>(GetParam()));
  // Every data message carries 8 bytes; the flush no-op carries none.
  EXPECT_EQ(r->tb.node(1).host.payload_bytes_delivered(), r->data_msgs * 8);
  EXPECT_EQ(r->tb.node(1).host.payload_writes(), r->posted);
}

TEST_P(Invariants, CompletionsMatchSignalPolicy) {
  auto r = run_traffic(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const std::uint32_t period = std::get<1>(GetParam());
  // Every op is eventually retired; CQE count is floor(posted/period)
  // plus at most one forced flush CQE.
  EXPECT_EQ(r->tb.node(0).worker.tx_ops_retired(), r->posted);
  const auto cqes = r->tb.node(0).nic.cqes_written();
  EXPECT_GE(cqes, r->posted / period);
  EXPECT_LE(cqes, r->posted / period + 1);
}

TEST_P(Invariants, TracesAreTimeOrderedAndComplete) {
  auto r = run_traffic(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const auto& recs = r->tb.analyzer().trace();
  // One downstream post per message, unique msg ids, per-direction
  // monotonic timestamps.
  std::map<pcie::Direction, TimePs> last;
  std::set<std::uint64_t> ids;
  std::uint64_t posts = 0;  // incl. the flush no-op (a 64 B PIO chunk)
  for (const auto& rec : recs) {
    auto it = last.find(rec.dir);
    if (it != last.end()) {
      EXPECT_GE(rec.t, it->second);
    }
    last[rec.dir] = rec.t;
    if (!rec.is_dllp && rec.dir == pcie::Direction::kDownstream &&
        rec.tlp_type == pcie::TlpType::kMemWrite && rec.bytes >= 64) {
      ++posts;
      EXPECT_TRUE(ids.insert(rec.msg_id).second)
          << "duplicate msg_id " << rec.msg_id;
    }
  }
  EXPECT_EQ(posts, r->posted);
}

TEST_P(Invariants, CreditsReturnAtQuiescence) {
  auto r = run_traffic(std::get<0>(GetParam()), std::get<1>(GetParam()));
  // After the run drains, every consumed credit has been replenished.
  const auto& credits = r->tb.node(0).rc.credits();
  EXPECT_EQ(credits.outstanding_headers(pcie::CreditClass::kPosted), 0);
  EXPECT_EQ(credits.outstanding_headers(pcie::CreditClass::kNonPosted), 0);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTraffic, Invariants,
    ::testing::Combine(::testing::Values(11u, 22u, 33u, 44u),
                       ::testing::Values(1u, 4u, 64u)));

TEST(InvariantsEdge, RdmaWritesLeaveNoRxCompletions) {
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Testbed& t, llp::Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 32; ++i) {
      while (co_await e.put_short(8) != llp::Status::kOk) {
        co_await t.node(0).worker.progress();
      }
    }
    while (e.outstanding() > 0) co_await t.node(0).worker.progress();
  }(tb, ep));
  tb.sim().run();
  EXPECT_EQ(tb.node(1).host.rx_cq().depth(), 0u);
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 32u * 8u);
}

TEST(InvariantsEdge, MultiCoreMsgIdsNeverCollide) {
  Testbed tb(scenario::presets::deterministic());
  auto& wc1 = tb.add_core(0);
  auto& wc2 = tb.add_core(0);
  auto& ep1 = tb.add_endpoint(wc1, 0);
  auto& ep2 = tb.add_endpoint(wc2, 0);
  auto loop = [](Testbed::WorkerCore& wc, llp::Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 64; ++i) {
      while (co_await e.put_short(8) != llp::Status::kOk) {
        co_await wc.worker.progress();
      }
    }
    while (e.outstanding() > 0) co_await wc.worker.progress();
  };
  tb.sim().spawn(loop(wc1, ep1));
  tb.sim().spawn(loop(wc2, ep2));
  tb.sim().run();  // the NIC asserts on duplicate in-flight msg ids
  EXPECT_EQ(tb.node(0).nic.messages_injected(), 128u);
}

}  // namespace
}  // namespace bb
