#include "benchlib/osu.hpp"

#include "common/assert.hpp"

namespace bb::bench {

OsuMessageRate::OsuMessageRate(scenario::Testbed& tb, OsuMessageRateConfig cfg)
    : tb_(tb), cfg_(cfg), stack_(tb, 0) {
  // The target keeps receives pre-posted; with the sync removed it is a
  // passive sink (§6's footnote ‡).
  tb_.node(1).nic.post_receives(static_cast<std::uint32_t>(
      (cfg_.windows + cfg_.warmup_windows) * cfg_.window_size + 64));
}

sim::Task<void> OsuMessageRate::driver() {
  cpu::Core& core = stack_.node().core;
  core.set_speed_factor(cfg_.speed_factor);
  stack_.node().profiler.set_enabled(false);

  std::vector<hlp::Request*> reqs;
  const std::uint64_t total = cfg_.warmup_windows + cfg_.windows;
  for (std::uint64_t w = 0; w < total; ++w) {
    if (w == cfg_.warmup_windows) cpu_start_ns_ = core.virtual_now().to_ns();
    reqs.clear();
    reqs.reserve(cfg_.window_size);
    for (std::uint32_t i = 0; i < cfg_.window_size; ++i) {
      reqs.push_back((co_await stack_.mpi().isend(cfg_.bytes)).value());
    }
    core.consume(core.costs().loop_hiccup);
    co_await stack_.mpi().waitall(reqs);
  }
  cpu_end_ns_ = core.virtual_now().to_ns();
  core.set_speed_factor(1.0);
}

InjectionResult OsuMessageRate::run() {
  tb_.analyzer().set_enabled(cfg_.capture_trace);
  tb_.sim().spawn(driver(), "osu_mr-driver");
  tb_.sim().run();

  InjectionResult res;
  res.messages = cfg_.windows * cfg_.window_size;
  res.busy_posts = stack_.endpoint().busy_posts();
  res.cpu_per_msg_ns =
      (cpu_end_ns_ - cpu_start_ns_) / static_cast<double>(res.messages);
  if (cfg_.capture_trace) {
    auto posts = tb_.analyzer().trace().downstream_writes(64);
    const std::uint64_t warm = cfg_.warmup_windows * cfg_.window_size;
    if (posts.size() > warm + 2) {
      posts.erase(posts.begin(), posts.begin() + static_cast<std::ptrdiff_t>(warm));
      res.nic_deltas = pcie::Trace::deltas(posts);
    }
  }
  return res;
}

OsuLatency::OsuLatency(scenario::Testbed& tb, OsuLatencyConfig cfg)
    : tb_(tb),
      cfg_(cfg),
      a_(tb, 0),
      b_(tb, 1) {
  const auto msgs =
      static_cast<std::uint32_t>(cfg_.warmup + cfg_.iterations + 2);
  tb_.node(0).nic.post_receives(msgs);
  tb_.node(1).nic.post_receives(msgs);
}

sim::Task<void> OsuLatency::initiator() {
  cpu::Core& core = a_.node().core;
  core.set_speed_factor(cfg_.speed_factor);
  a_.node().profiler.set_enabled(false);

  for (std::uint64_t i = 0; i < cfg_.warmup + cfg_.iterations; ++i) {
    const double t0 = core.virtual_now().to_ns();
    hlp::Request* rr = a_.mpi().irecv(cfg_.bytes).value();
    (void)co_await a_.mpi().isend(cfg_.bytes);
    co_await a_.mpi().wait(rr);
    core.consume(core.costs().timer_read);  // per-iteration timing
    core.consume(core.costs().loop_hiccup);
    if (i >= cfg_.warmup) {
      half_rtt_raw_.add_ns((core.virtual_now().to_ns() - t0) / 2.0);
    }
  }
  core.set_speed_factor(1.0);
}

sim::Task<void> OsuLatency::responder() {
  cpu::Core& core = b_.node().core;
  core.set_speed_factor(cfg_.speed_factor);
  b_.node().profiler.set_enabled(false);

  for (std::uint64_t i = 0; i < cfg_.warmup + cfg_.iterations; ++i) {
    hlp::Request* rr = b_.mpi().irecv(cfg_.bytes).value();
    co_await b_.mpi().wait(rr);
    (void)co_await b_.mpi().isend(cfg_.bytes);
    co_await core.flush();
  }
  core.set_speed_factor(1.0);
}

LatencyResult OsuLatency::run() {
  tb_.analyzer().set_enabled(cfg_.capture_trace);
  tb_.sim().spawn(initiator(), "osu_lat-initiator");
  tb_.sim().spawn(responder(), "osu_lat-responder");
  tb_.sim().run();

  LatencyResult res;
  res.iterations = cfg_.iterations;
  res.half_rtt_raw = half_rtt_raw_;
  res.adjusted_mean_ns =
      half_rtt_raw_.summarize().mean - tb_.config().cpu.timer_read.mean_ns / 2.0;
  return res;
}

}  // namespace bb::bench
