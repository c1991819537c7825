#include "benchlib/am_lat.hpp"

namespace bb::bench {

AmLatBenchmark::AmLatBenchmark(scenario::Testbed& tb, AmLatConfig cfg)
    : tb_(tb), cfg_(cfg), ep0_(tb.add_endpoint(0)), ep1_(tb.add_endpoint(1)) {
  const std::uint32_t msgs =
      static_cast<std::uint32_t>(cfg_.warmup + cfg_.iterations + 2);
  tb_.node(0).nic.post_receives(msgs);
  tb_.node(1).nic.post_receives(msgs);
}

sim::Task<void> AmLatBenchmark::initiator() {
  auto& node = tb_.node(0);
  cpu::Core& core = node.core;
  core.set_speed_factor(cfg_.speed_factor);
  node.profiler.set_enabled(false);

  for (std::uint64_t i = 0; i < cfg_.warmup + cfg_.iterations; ++i) {
    const double t0 = core.virtual_now().to_ns();
    // Ping.
    while (co_await ep0_.am_short(cfg_.bytes) != llp::Status::kOk) {
      co_await node.worker.progress();
    }
    // Poll until the pong's receive completion shows up.
    const std::uint64_t seen = node.worker.rx_completions();
    while (node.worker.rx_completions() == seen) {
      co_await node.worker.idle();
      co_await node.worker.progress();
    }
    // The benchmark's measurement update (on the critical path once per
    // round trip; §4.3 deducts half of it).
    core.consume(core.costs().timer_read);
    core.consume(core.costs().loop_hiccup);
    if (i >= cfg_.warmup) {
      half_rtt_raw_.add_ns((core.virtual_now().to_ns() - t0) / 2.0);
    }
  }
  core.set_speed_factor(1.0);
}

sim::Task<void> AmLatBenchmark::responder() {
  auto& node = tb_.node(1);
  node.core.set_speed_factor(cfg_.speed_factor);
  node.profiler.set_enabled(false);

  for (std::uint64_t i = 0; i < cfg_.warmup + cfg_.iterations; ++i) {
    const std::uint64_t seen = node.worker.rx_completions();
    while (node.worker.rx_completions() == seen) {
      co_await node.worker.idle();
      co_await node.worker.progress();
    }
    while (co_await ep1_.am_short(cfg_.bytes) != llp::Status::kOk) {
      co_await node.worker.progress();
    }
  }
  node.core.set_speed_factor(1.0);
}

LatencyResult AmLatBenchmark::run() {
  tb_.analyzer().set_enabled(cfg_.capture_trace);
  tb_.sim().spawn(initiator(), "am_lat-initiator");
  tb_.sim().spawn(responder(), "am_lat-responder");
  tb_.sim().run();

  LatencyResult res;
  res.iterations = cfg_.iterations;
  res.half_rtt_raw = half_rtt_raw_;
  const double raw_mean = half_rtt_raw_.summarize().mean;
  res.adjusted_mean_ns =
      raw_mean - tb_.config().cpu.timer_read.mean_ns / 2.0;
  return res;
}

}  // namespace bb::bench
