#include "llp/endpoint.hpp"

#include <gtest/gtest.h>

#include "scenario/testbed.hpp"

namespace bb::llp {
namespace {

using scenario::Testbed;
using namespace bb::literals;

TEST(Endpoint, PostCostsExactlyLlpPost) {
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    EXPECT_EQ(co_await e.put_short(8), Status::kOk);
    // Table 1: LLP_post = 175.42 ns of CPU work, all flushed by the post.
    EXPECT_NEAR(n.core.virtual_now().to_ns(), 175.42, 1e-6);
  }(tb.node(0), ep));
  tb.sim().run();
}

TEST(Endpoint, EightBytePayloadIsOnePioChunk) {
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Endpoint& e) -> sim::Task<void> {
    (void)co_await e.put_short(8);
  }(ep));
  tb.sim().run();
  const auto posts = tb.analyzer().trace().downstream_writes();
  ASSERT_EQ(posts.size(), 1u);
  // "The PIO copy of an 8-byte message is one 64-byte chunk" (§4.1).
  EXPECT_EQ(posts[0].bytes, 64u);
}

TEST(Endpoint, LargerPayloadUsesMorePioChunks) {
  Testbed tb(scenario::presets::deterministic());
  auto cfg = tb.config().endpoint;
  cfg.max_inline_bytes = 256;
  auto& ep = tb.add_endpoint(0, cfg);
  double t_small = 0, t_big = 0;
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e, double& small,
                    double& big) -> sim::Task<void> {
    const double t0 = n.core.virtual_now().to_ns();
    (void)co_await e.put_short(8);
    small = n.core.virtual_now().to_ns() - t0;
    (void)co_await e.put_short(128);  // 32 B MD overhead + 128 B = 3 chunks
    big = n.core.virtual_now().to_ns() - small - t0;
  }(tb.node(0), ep, t_small, t_big));
  tb.sim().run();
  // Two extra 94.25 ns PIO chunks.
  EXPECT_NEAR(t_big - t_small, 2 * 94.25, 1e-6);
  const auto posts = tb.analyzer().trace().downstream_writes();
  ASSERT_EQ(posts.size(), 2u);
  EXPECT_EQ(posts[0].bytes, 64u);
  EXPECT_EQ(posts[1].bytes, 192u);
}

TEST(Endpoint, BusyPostWhenTxqFull) {
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.txq_depth = 2;
  Testbed tb(cfg);
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    EXPECT_EQ(co_await e.put_short(8), Status::kOk);
    EXPECT_EQ(co_await e.put_short(8), Status::kOk);
    const double before = n.core.virtual_now().to_ns();
    EXPECT_EQ(co_await e.put_short(8), Status::kNoResource);
    // The busy post costs only the early-exit time (Table 1: 8.99 ns).
    EXPECT_NEAR(n.core.virtual_now().to_ns() - before, 8.99, 1e-6);
    EXPECT_EQ(e.busy_posts(), 1u);
    EXPECT_EQ(e.outstanding(), 2u);
  }(tb.node(0), ep));
  tb.sim().run();
}

TEST(Endpoint, BusyPostClearsAfterProgress) {
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.txq_depth = 1;
  Testbed tb(cfg);
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    EXPECT_EQ(co_await e.put_short(8), Status::kOk);
    EXPECT_EQ(co_await e.put_short(8), Status::kNoResource);
    while (e.outstanding() > 0) co_await n.worker.progress();
    EXPECT_EQ(co_await e.put_short(8), Status::kOk);
  }(tb.node(0), ep));
  tb.sim().run();
  EXPECT_EQ(ep.posted(), 2u);
}

TEST(Endpoint, SignalPolicyMarksEveryNth) {
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.signal_period = 3;
  Testbed tb(cfg);
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 6; ++i) (void)co_await e.put_short(8);
    while (e.outstanding() > 0) co_await n.worker.progress();
  }(tb.node(0), ep));
  tb.sim().run();
  EXPECT_EQ(tb.node(0).nic.cqes_written(), 2u);
}

TEST(Endpoint, TxRetireHandlerObservesCounts) {
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.signal_period = 4;
  Testbed tb(cfg);
  auto& ep = tb.add_endpoint(0);
  std::vector<std::uint32_t> retires;
  ep.set_tx_retire_handler([&](std::uint32_t k) { retires.push_back(k); });
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) (void)co_await e.put_short(8);
    while (e.outstanding() > 0) co_await n.worker.progress();
  }(tb.node(0), ep));
  tb.sim().run();
  EXPECT_EQ(retires, (std::vector<std::uint32_t>{4}));
}

TEST(Endpoint, FlushRetiresUnsignaledTail) {
  // 5 ops at period 4: op 4 is signalled, op 5 would hang a drain loop
  // without the flush's forced-signal no-op.
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.signal_period = 4;
  Testbed tb(cfg);
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) (void)co_await e.put_short(8);
    EXPECT_EQ(co_await e.flush(), Status::kOk);
    while (e.outstanding() > 0) co_await n.worker.progress();
  }(tb.node(0), ep));
  tb.sim().run();
  EXPECT_EQ(ep.posted(), 6u);  // 5 data ops + the flush no-op
  EXPECT_EQ(tb.node(0).nic.cqes_written(), 2u);
  EXPECT_EQ(tb.node(0).worker.tx_ops_retired(), 6u);
}

TEST(Endpoint, FlushIsNoopWhenIdle) {
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Endpoint& e) -> sim::Task<void> {
    EXPECT_EQ(co_await e.flush(), Status::kOk);
    EXPECT_EQ(e.posted(), 0u);
  }(ep));
  tb.sim().run();
}

TEST(Endpoint, ProfiledSubstepsMatchFig4Constituents) {
  Testbed tb(scenario::presets::deterministic());
  tb.node(0).profiler.select(prof::kPostSubsteps);
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) (void)co_await e.put_short(8);
  }(ep));
  tb.sim().run();
  auto& prof = tb.node(0).profiler;
  EXPECT_NEAR(prof.mean_ns("MD setup"), 27.78, 1e-6);
  EXPECT_NEAR(prof.mean_ns("Barrier for MD"), 17.33, 1e-6);
  EXPECT_NEAR(prof.mean_ns("Barrier for DBC"), 21.07, 1e-6);
  EXPECT_NEAR(prof.mean_ns("PIO copy"), 94.25, 1e-6);
  EXPECT_NEAR(prof.mean_ns("Other"), 14.99, 1e-6);
}

TEST(Endpoint, ProfiledTotalMatchesTable1) {
  Testbed tb(scenario::presets::deterministic());
  tb.node(0).profiler.select({prof::Point::kLlpPost, prof::Point::kBusyPost});
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) (void)co_await e.put_short(8);
  }(ep));
  tb.sim().run();
  EXPECT_NEAR(tb.node(0).profiler.mean_ns("LLP_post"), 175.42, 1e-6);
}

}  // namespace
}  // namespace bb::llp
