#include "benchlib/osu.hpp"

#include <gtest/gtest.h>

#include "core/models.hpp"
#include "scenario/testbed.hpp"

namespace bb::bench {
namespace {

TEST(OsuMessageRate, WithinOnePercentOfEq2) {
  // §6's validation: Eq. 2 (264.97 ns) within ~1% of the observed inverse
  // message rate.
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  OsuMessageRate bench(tb, {.windows = 150, .warmup_windows = 20});
  const InjectionResult res = bench.run();

  const auto model = core::InjectionModel(
      core::ComponentTable::from_config(tb.config()));
  EXPECT_LE(std::abs(model.overall_injection_ns() - res.cpu_per_msg_ns) /
                res.cpu_per_msg_ns,
            0.015)
      << "model " << model.overall_injection_ns() << " observed "
      << res.cpu_per_msg_ns;
  EXPECT_NEAR(res.cpu_per_msg_ns, 263.91, 263.91 * 0.02);
}

TEST(OsuMessageRate, MessageRateDerived) {
  scenario::Testbed tb(scenario::presets::deterministic());
  OsuMessageRate bench(tb, {.windows = 50, .warmup_windows = 5,
                            .speed_factor = 1.0});
  const InjectionResult res = bench.run();
  EXPECT_NEAR(res.message_rate(), 1e9 / res.cpu_per_msg_ns, 1.0);
  // ~3.7-3.8 million messages per second on the paper's testbed.
  EXPECT_GT(res.message_rate(), 3.4e6);
  EXPECT_LT(res.message_rate(), 4.2e6);
}

TEST(OsuMessageRate, UnsignaledCompletionsAmortizeLlpProgress) {
  // With c = 64, the NIC writes ~1 CQE per window of 64.
  scenario::Testbed tb(scenario::presets::deterministic());
  OsuMessageRate bench(tb, {.windows = 40, .warmup_windows = 4,
                            .speed_factor = 1.0});
  (void)bench.run();
  const auto cqes = tb.node(0).nic.cqes_written();
  const auto msgs = tb.node(0).nic.messages_injected();
  EXPECT_NEAR(static_cast<double>(msgs) / static_cast<double>(cqes), 64.0,
              1.0);
}

TEST(OsuMessageRate, SignaledEveryOpIsSlower) {
  // Ablation direction: per-message CQEs reintroduce LLP_prog per op.
  auto cfg = scenario::presets::deterministic();
  cfg.ucp.signal_period = 64;
  scenario::Testbed tb1(cfg);
  OsuMessageRate moderated(tb1, {.windows = 40, .warmup_windows = 4,
                                 .speed_factor = 1.0});
  cfg.ucp.signal_period = 1;
  scenario::Testbed tb2(cfg);
  OsuMessageRate signaled(tb2, {.windows = 40, .warmup_windows = 4,
                                .speed_factor = 1.0});
  const double fast = moderated.run().cpu_per_msg_ns;
  const double slow = signaled.run().cpu_per_msg_ns;
  EXPECT_GT(slow, fast + 30.0);  // ~ one LLP_prog per op re-appears
}

TEST(OsuMessageRate, TraceCaptureYieldsNicDeltas) {
  scenario::Testbed tb(scenario::presets::deterministic());
  OsuMessageRate bench(tb, {.windows = 30, .warmup_windows = 5,
                            .speed_factor = 1.0, .capture_trace = true});
  const InjectionResult res = bench.run();
  ASSERT_GT(res.nic_deltas.size(), 100u);
  // NIC inter-arrival tracks the CPU per-message time in steady state.
  EXPECT_NEAR(res.nic_deltas.summarize().mean, res.cpu_per_msg_ns,
              res.cpu_per_msg_ns * 0.06);
}

TEST(OsuLatency, SpeedFactorScalesCpuShareOnly) {
  scenario::Testbed tb1(scenario::presets::deterministic());
  OsuLatency slow(tb1, {.iterations = 150, .warmup = 20, .speed_factor = 1.0});
  scenario::Testbed tb2(scenario::presets::deterministic());
  OsuLatency fast(tb2, {.iterations = 150, .warmup = 20, .speed_factor = 0.8});
  const double l_slow = slow.run().adjusted_mean_ns;
  const double l_fast = fast.run().adjusted_mean_ns;
  // Only the CPU share (~520 ns of the one-way path) scales.
  EXPECT_LT(l_fast, l_slow);
  EXPECT_GT(l_fast, l_slow - 520.0 * 0.25);
}

TEST(OsuLatency, WithinFourPercentOfE2eModel) {
  // §6's validation: modelled 1387.02 vs observed 1336 (within 4%).
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  OsuLatency bench(tb, {.iterations = 1500, .warmup = 150});
  const LatencyResult res = bench.run();
  const auto model =
      core::LatencyModel(core::ComponentTable::from_config(tb.config()));
  EXPECT_LE(std::abs(model.e2e_latency_ns() - res.adjusted_mean_ns) /
                res.adjusted_mean_ns,
            0.04)
      << "model " << model.e2e_latency_ns() << " observed "
      << res.adjusted_mean_ns;
}

TEST(OsuLatency, ReceiverWaitEntryOverlapsFlight) {
  // The blocking-wait entry cost is spent while the message is in flight;
  // removing the overlap (by making the fixed wait cost tiny) must NOT
  // speed up the observed latency by the full 208 ns.
  auto base_cfg = scenario::presets::deterministic();
  scenario::Testbed tb1(base_cfg);
  OsuLatency b1(tb1, {.iterations = 300, .warmup = 30, .speed_factor = 1.0});
  const double with_entry = b1.run().adjusted_mean_ns;

  auto thin = scenario::presets::deterministic();
  thin.cpu.mpich_wait_fixed.mean_ns = 1.0;
  scenario::Testbed tb2(thin);
  OsuLatency b2(tb2, {.iterations = 300, .warmup = 30, .speed_factor = 1.0});
  const double without_entry = b2.run().adjusted_mean_ns;

  EXPECT_LT(with_entry - without_entry, 208.41 * 0.75);
}

}  // namespace
}  // namespace bb::bench
