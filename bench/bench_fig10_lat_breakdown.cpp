// Reproduces Fig. 10 and the §4.3 validation: the latency of a small
// message with the LLP -- modelled 1135.8 ns within 5% of the
// (measurement-update-adjusted) observed am_lat latency -- and the
// percentage breakdown across LLP_post / TX PCIe / Wire / Switch /
// RX PCIe / RC-to-MEM(8B).

#include <cstdio>

#include "benchlib/am_lat.hpp"
#include "core/models.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int bbench::fig10_lat_breakdown(const Args&) {
  bbench::header("bench_fig10_lat_breakdown -- latency with the LLP",
                 "Fig. 10 + §4.3 validation (model 1135.8 vs observed 1190.25)");

  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::AmLatBenchmark bench(tb, {.iterations = 4000, .warmup = 400});
  const bench::LatencyResult res = bench.run();

  const auto table = core::ComponentTable::from_config(tb.config());
  const core::LatencyModel model(table);

  bbench::print_bar("model constituents (LLP latency)",
                    model.fig10_breakdown());
  std::printf("raw observed am_lat:        %.2f ns\n",
              res.half_rtt_raw.summarize().mean);
  std::printf("adjusted (minus update/2):  %.2f ns (paper: 1190.25)\n",
              res.adjusted_mean_ns);
  std::printf("modelled LLP latency:       %.2f ns (paper: 1135.8)\n\n",
              model.llp_latency_ns());

  const auto segs = model.fig10_breakdown();

  bbench::Validator v;
  v.within("model within 5% of observed", model.llp_latency_ns(),
           res.adjusted_mean_ns, 0.05);
  v.within("modelled latency = 1135.8", model.llp_latency_ns(), 1135.8, 0.001);
  v.within("LLP_post share", share(segs, 0), 16.33, 0.01);
  v.within("TX PCIe share", share(segs, 1), 12.80, 0.01);
  v.within("Wire share", share(segs, 2), 25.58, 0.01);
  v.within("Switch share", share(segs, 3), 10.05, 0.01);
  v.within("RX PCIe share", share(segs, 4), 12.80, 0.01);
  v.within("RC-to-MEM(8B) share", share(segs, 5), 22.43, 0.01);
  return v.finish();
}
