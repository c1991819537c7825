// Ablation: switch-count sweep. Each store-and-forward switch adds its
// latency to the network component (§4.3 measures one switch at 108 ns
// by differencing); this bench verifies latency is affine in hop count
// with slope = the configured switch latency.

#include <cstdio>

#include "benchlib/am_lat.hpp"
#include "exec/sweep.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int bbench::ablation_switch_count(const Args& args) {
  bbench::header("bench_ablation_switch_count -- switch-count sweep",
                 "§4.3's switch-differencing methodology, generalized");

  const auto res = exec::run_sweep(
      exec::sweep<int>({0, 1, 2, 3}),
      [](int s, exec::Job&) {
        auto cfg = scenario::presets::thunderx2_cx4();
        cfg.net.num_switches = s;
        scenario::Testbed tb(cfg);
        bench::AmLatBenchmark b(tb, {.iterations = 1200, .warmup = 120});
        return b.run().adjusted_mean_ns;
      },
      args.exec);
  bbench::note_exec("switch-count sweep", res);

  std::printf("%-10s %18s\n", "switches", "latency (ns)");
  const std::vector<double>& lat = res.values;
  for (int s = 0; s <= 3; ++s) {
    std::printf("%-10d %18.2f\n", s, lat[s]);
  }

  std::printf("\nper-switch deltas: %.2f, %.2f, %.2f ns (config: 108)\n",
              lat[1] - lat[0], lat[2] - lat[1], lat[3] - lat[2]);

  bbench::Validator v;
  v.within("0->1 switch delta = 108 ns", lat[1] - lat[0], 108.0, 0.05);
  v.within("1->2 switch delta = 108 ns", lat[2] - lat[1], 108.0, 0.05);
  v.within("2->3 switch delta = 108 ns", lat[3] - lat[2], 108.0, 0.05);
  return v.finish();
}
