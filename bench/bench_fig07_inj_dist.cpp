// Reproduces Fig. 7 and the §4.2 validation: the distribution of the
// observed injection overhead (NIC inter-arrival deltas from the PCIe
// trace), with the paper's summary statistics, plus the Eq.-1 model
// comparison (modelled 295.73 ns within 5% of the observed mean).

#include <cstdio>

#include "benchlib/put_bw.hpp"
#include "core/models.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int bbench::fig07_inj_dist(const Args&) {
  bbench::header(
      "bench_fig07_inj_dist -- distribution of observed injection overhead",
      "Fig. 7 + §4.2 validation (model 295.73 vs observed 282.33)");

  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::PutBwBenchmark bench(tb, {.messages = 30000, .warmup = 3000});
  const bench::InjectionResult res = bench.run();
  const Summary s = res.nic_deltas.summarize();

  Histogram h(0.0, 500.0, 50);
  h.add_all(res.nic_deltas);
  std::printf("%s\n", h.render().c_str());
  std::printf("          %-10s %-10s\n", "paper", "simulated");
  std::printf("Mean:     %-10.2f %-10.2f\n", 282.33, s.mean);
  std::printf("Median:   %-10.2f %-10.2f\n", 266.30, s.median);
  std::printf("Min:      %-10.2f %-10.2f\n", 201.30, s.min);
  std::printf("Max:      %-10.2f %-10.2f\n", 34951.70, s.max);
  std::printf("Std. dev: %-10.2f %-10.2f\n\n", 58.49, s.stddev);

  const auto model = core::InjectionModel(
      core::ComponentTable::from_config(tb.config()));
  std::printf("modelled injection overhead (Eq. 1): %.2f ns\n",
              model.llp_injection_ns());
  std::printf("observed injection overhead (trace): %.2f ns\n",
              s.mean);
  std::printf("busy posts: %llu over %llu messages\n",
              static_cast<unsigned long long>(res.busy_posts),
              static_cast<unsigned long long>(res.messages));

  bbench::Validator v;
  v.within("model within 5% of observed (paper's validation)",
           model.llp_injection_ns(), s.mean, 0.05);
  v.within("observed mean near paper's 282.33", s.mean, 282.33, 0.03);
  v.within("observed median near paper's 266.30", s.median, 266.30, 0.05);
  v.is_true("positively skewed (median < mean)", s.median < s.mean);
  v.is_true("heavy tail (max >> p99)", s.max > s.p99 * 1.5);
  v.within("std dev near paper's 58.49", s.stddev, 58.49, 0.6);
  v.is_true("min above 150 ns", s.min > 150.0);
  return v.finish();
}
