// Extension bench: multi-core injection scaling.
//
// The paper's introduction motivates the small-message regime with
// fine-grained communication: at the limit of strong scaling every core
// communicates independently. This bench runs 1..8 cores, each driving
// its own QP with the put_bw loop through the *shared* PCIe link and
// NIC, and reports aggregate injection rate. On the paper's testbed the
// per-core CPU_time (~282 ns) dwarfs the link serialization (~11 ns per
// 64 B write) and the Root Complex pipelines posted writes, so scaling
// is near-linear at these core counts -- the condition under which the
// single-core breakdown stays representative per-core.

#include <cstdio>
#include <vector>

#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;
using scenario::Testbed;

namespace {

constexpr std::uint64_t kMessagesPerCore = 4000;

sim::Task<void> core_loop(Testbed::WorkerCore& wc, llp::Endpoint& ep) {
  cpu::Core& core = wc.core;
  core.set_speed_factor(0.8025);  // same hot-loop calibration as put_bw
  std::uint64_t sent = 0;
  while (sent < kMessagesPerCore) {
    const llp::Status st = co_await ep.put_short(8);
    if (st == llp::Status::kNoResource) {
      co_await wc.worker.progress(1);
      continue;
    }
    ++sent;
    core.consume(core.costs().timer_read);
    core.consume(core.costs().loop_exp_noise);
    if (sent % 16 == 0) co_await wc.worker.progress(1);
  }
  while (ep.outstanding() > 0) {
    co_await wc.worker.progress();
  }
}

double aggregate_rate_mmsgs(int cores) {
  Testbed tb(scenario::presets::thunderx2_cx4());
  tb.analyzer().set_enabled(false);
  std::vector<llp::Endpoint*> eps;
  for (int c = 0; c < cores; ++c) {
    auto& wc = tb.add_core(0);
    auto& ep = tb.add_endpoint(wc, 0);
    tb.sim().spawn(core_loop(wc, ep), "core-loop");
    eps.push_back(&ep);
  }
  tb.sim().run();
  const double total_msgs =
      static_cast<double>(kMessagesPerCore) * static_cast<double>(cores);
  return total_msgs / tb.sim().now().to_ns() * 1e3;  // M msgs/s
}

}  // namespace

int bbench::scaling_cores(const Args&) {
  bbench::header("bench_scaling_cores -- multi-core injection scaling",
                 "extension of §1's fine-grained-communication motivation");

  std::printf("%-8s %16s %12s\n", "cores", "Mmsg/s", "efficiency");
  std::vector<double> rates;
  for (int c : {1, 2, 4, 8}) {
    rates.push_back(aggregate_rate_mmsgs(c));
    std::printf("%-8d %16.2f %11.1f%%\n", c, rates.back(),
                rates.back() / (rates[0] * c) * 100.0);
  }

  bbench::Validator v;
  v.within("single core matches put_bw (1/282 ns)", rates[0], 1e3 / 282.33,
           0.04);
  v.is_true("2 cores scale >90%", rates[1] > rates[0] * 2 * 0.90);
  v.is_true("4 cores scale >85%", rates[2] > rates[0] * 4 * 0.85);
  v.is_true("8 cores scale >75%", rates[3] > rates[0] * 8 * 0.75);
  v.is_true("scaling is monotonic",
            rates[1] > rates[0] && rates[2] > rates[1] && rates[3] > rates[2]);
  return v.finish();
}
