#pragma once
// UCX perftest's put_bw: the single-threaded RDMA-write injection-rate
// microbenchmark of §4.2.
//
// Loop structure (as §4.2 describes it):
//  * every message is signalled (a completion per message);
//  * the benchmark explicitly polls one completion every 16 posts;
//  * a failed (busy) post triggers a progress call and a retry;
//  * a measurement update (timestamp read + rate bookkeeping) follows
//    every successful post.
// Once the TxQ depth is exhausted, the steady state is: busy post,
// progress (dequeue one CQE), successful post, measurement update --
// which is exactly Eq. 1's  LLP_post + LLP_prog + Misc.

#include <cstdint>

#include "benchlib/bench_types.hpp"
#include "scenario/testbed.hpp"

namespace bb::bench {

struct PutBwConfig {
  std::uint64_t messages = 20000;
  std::uint64_t warmup = 2000;
  std::uint32_t bytes = 8;
  /// Poll one completion every N posts (UCX perftest behaviour).
  std::uint32_t poll_every = 16;
  /// Hot-loop factor: profiling wraps each component in timer reads and
  /// isb barriers, serializing the pipeline; the uninstrumented tight
  /// loop overlaps adjacent components (ILP, warm icache/branch
  /// predictors) and runs faster than the sum of individually-profiled
  /// means. Combined with the exponential per-iteration noise
  /// (CpuCostModel::loop_exp_noise) this reproduces both the observed
  /// mean (282.33 ns vs the modelled 295.73, §4.2) and Fig. 7's
  /// right-skewed shape (median 266 < mean 282).
  double speed_factor = 0.8025;
  bool capture_trace = true;
};

class PutBwBenchmark {
 public:
  PutBwBenchmark(scenario::Testbed& tb, PutBwConfig cfg);

  /// Runs to completion and extracts the analyzer-observed overhead.
  InjectionResult run();

 private:
  sim::Task<void> driver();

  scenario::Testbed& tb_;
  PutBwConfig cfg_;
  llp::Endpoint& ep_;
  double measured_cpu_start_ns_ = 0.0;
  double measured_cpu_end_ns_ = 0.0;
  bool flushed_ = false;  // the driver posted a closing flush
};

}  // namespace bb::bench
