#include "benchlib/put_bw.hpp"

#include "common/assert.hpp"

namespace bb::bench {

PutBwBenchmark::PutBwBenchmark(scenario::Testbed& tb, PutBwConfig cfg)
    : tb_(tb), cfg_(cfg), ep_(tb.add_endpoint(0)) {}

sim::Task<void> PutBwBenchmark::driver() {
  auto& node = tb_.node(0);
  cpu::Core& core = node.core;
  const cpu::CpuCostModel& costs = core.costs();
  core.set_speed_factor(cfg_.speed_factor);
  node.profiler.set_enabled(false);  // observed run: no instrumentation

  std::uint64_t sent = 0;
  const std::uint64_t total = cfg_.warmup + cfg_.messages;
  while (sent < total) {
    const llp::Status st = co_await ep_.put_short(cfg_.bytes);
    if (st == llp::Status::kNoResource) {
      // Busy post: progress one completion, then retry (§4.2).
      co_await node.worker.progress(1);
      continue;
    }
    ++sent;
    if (sent == cfg_.warmup) measured_cpu_start_ns_ = core.virtual_now().to_ns();
    // Timestamp + injection-rate bookkeeping after every post.
    core.consume(costs.timer_read);
    // Per-iteration microarchitectural noise (right-skewed) plus rare OS
    // hiccups: together they produce Fig. 7's shape and heavy tail.
    core.consume(costs.loop_exp_noise);
    core.consume(costs.loop_hiccup);
    if (sent % cfg_.poll_every == 0) {
      co_await node.worker.progress(1);
    }
  }
  measured_cpu_end_ns_ = core.virtual_now().to_ns();

  // Ops posted after the last signalled one get no CQE of their own
  // (moderated completions): a flush retires them.
  if (ep_.posted() % ep_.config().signal_period != 0) {
    while (co_await ep_.flush() == llp::Status::kNoResource) {
      co_await node.worker.progress(1);
    }
    flushed_ = true;
  }
  // Drain remaining completions so the run ends quiescent.
  while (ep_.outstanding() > 0) {
    co_await node.worker.progress();
  }
  core.set_speed_factor(1.0);
}

InjectionResult PutBwBenchmark::run() {
  tb_.analyzer().set_enabled(cfg_.capture_trace);
  tb_.sim().spawn(driver(), "put_bw-driver");
  tb_.sim().run();

  InjectionResult res;
  res.messages = cfg_.messages;
  res.busy_posts = ep_.busy_posts();
  res.cpu_per_msg_ns = (measured_cpu_end_ns_ - measured_cpu_start_ns_) /
                       static_cast<double>(cfg_.messages);

  if (cfg_.capture_trace) {
    // Every post is one downstream MWr: a >= 64 B PIO descriptor write,
    // or an 8 B DoorBell on the DMA descriptor path. Drop the closing
    // flush and the warmup prefix, then compute consecutive deltas
    // (§4.2's methodology).
    auto posts = tb_.analyzer().trace().downstream_writes(
        ep_.config().use_pio ? 64 : 8);
    if (flushed_ && !posts.empty()) posts.pop_back();
    BB_ASSERT(posts.size() >= cfg_.warmup + 2);
    posts.erase(posts.begin(),
                posts.begin() + static_cast<std::ptrdiff_t>(cfg_.warmup));
    res.nic_deltas = pcie::Trace::deltas(posts);
  }
  return res;
}

}  // namespace bb::bench
