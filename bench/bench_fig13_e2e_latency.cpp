// Reproduces Fig. 13 and the §6 latency validation: the end-to-end
// latency breakdown (9 components, in nanoseconds) with the modelled
// 1387.02 ns within 4% of the observed OSU point-to-point latency
// (1336 ns).

#include <cstdio>

#include "benchlib/osu.hpp"
#include "core/models.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int bbench::fig13_e2e_latency(const Args&) {
  bbench::header("bench_fig13_e2e_latency -- end-to-end latency breakdown",
                 "Fig. 13 + §6 validation (1387.02 vs 1336, within 4%)");

  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::OsuLatency bench(tb, {.iterations = 4000, .warmup = 400});
  const bench::LatencyResult res = bench.run();

  const auto table = core::ComponentTable::from_config(tb.config());
  const core::LatencyModel model(table);
  const auto segs = model.fig13_breakdown();

  // The figure is a bar chart in nanoseconds; print both ns and shares.
  std::printf("%-16s %10s %8s\n", "component", "ns", "share");
  const double total = bbench::total(segs);
  for (const auto& s : segs) {
    std::printf("%-16s %10.2f %7.2f%%\n", s.label.c_str(), s.value,
                s.value / total * 100.0);
  }
  std::printf("%-16s %10.2f\n\n", "TOTAL (model)", total);
  std::printf("observed OSU latency (adjusted): %.2f ns (paper: 1336)\n\n",
              res.adjusted_mean_ns);

  bbench::Validator v;
  v.within("model within 4% of observed", model.e2e_latency_ns(),
           res.adjusted_mean_ns, 0.04);
  v.within("modelled e2e latency = 1387.02", total, 1387.02, 0.001);
  v.within("HLP_post share", share(segs, 0), 1.91, 0.02);
  v.within("LLP_post share", share(segs, 1), 12.65, 0.01);
  v.within("TX PCIe share", share(segs, 2), 9.91, 0.01);
  v.within("Wire share", share(segs, 3), 19.81, 0.01);
  v.within("Switch share", share(segs, 4), 7.79, 0.01);
  v.within("RX PCIe share", share(segs, 5), 9.91, 0.01);
  v.within("RC-to-MEM share", share(segs, 6), 17.37, 0.01);
  v.within("LLP_prog share", share(segs, 7), 4.44, 0.01);
  v.within("HLP_rx_prog share", share(segs, 8), 16.20, 0.01);
  return v.finish();
}
