// Reproduces Fig. 8: the percentage breakdown of the injection overhead
// with the LLP (LLP_post / LLP_prog / Misc), model and simulation side
// by side.

#include <cstdio>

#include "benchlib/put_bw.hpp"
#include "core/models.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int bbench::fig08_inj_breakdown(const Args&) {
  bbench::header("bench_fig08_inj_breakdown -- injection overhead with LLP",
                 "Fig. 8 (§4.2)");

  const auto table = core::ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const core::InjectionModel model(table);
  bbench::print_bar("model (Eq. 1 constituents)", model.fig8_breakdown());

  // The simulated counterpart: attribute the observed per-message time.
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::PutBwBenchmark bench(tb, {.messages = 10000, .warmup = 1000});
  const auto res = bench.run();
  std::printf("observed per-message overhead: %.2f ns (model %.2f ns)\n\n",
              res.nic_deltas.summarize().mean, model.llp_injection_ns());

  const auto segs = model.fig8_breakdown();

  bbench::Validator v;
  v.within("LLP_post share", share(segs, 0), 61.18, 0.01);
  v.within("LLP_prog share", share(segs, 1), 21.49, 0.01);
  v.within("Misc share", share(segs, 2), 17.33, 0.01);
  v.is_true("LLP_post dominates injection (>60%)",
            segs[0].value / total(segs) > 0.6);
  return v.finish();
}
