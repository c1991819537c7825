// Reproduces Fig. 12 and the §6 injection validation: the overall
// injection overhead (Post / Post_prog / Misc) with Eq. 2's 264.97 ns
// within 1% of the observed inverse message rate (263.91 ns), measured
// with the OSU-style message-rate test (sync removed).

#include <cstdio>

#include "benchlib/osu.hpp"
#include "core/models.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int bbench::fig12_overall_inj(const Args&) {
  bbench::header("bench_fig12_overall_inj -- overall injection overhead",
                 "Fig. 12 + §6 validation (264.97 vs 263.91, within 1%)");

  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::OsuMessageRate bench(tb, {.windows = 400, .warmup_windows = 40});
  const bench::InjectionResult res = bench.run();

  const auto table = core::ComponentTable::from_config(tb.config());
  const core::InjectionModel model(table);

  bbench::print_bar("model (Eq. 2 constituents)", model.fig12_breakdown());
  std::printf("modelled overall injection (Eq. 2): %.2f ns (paper: 264.97)\n",
              model.overall_injection_ns());
  std::printf("observed 1/message-rate:            %.2f ns (paper: 263.91)\n",
              res.cpu_per_msg_ns);
  std::printf("message rate: %.2f M msg/s; busy posts: %llu / %llu msgs\n\n",
              res.message_rate() / 1e6,
              static_cast<unsigned long long>(res.busy_posts),
              static_cast<unsigned long long>(res.messages));

  const auto segs = model.fig12_breakdown();

  bbench::Validator v;
  v.within("model within ~1% of observed", model.overall_injection_ns(),
           res.cpu_per_msg_ns, 0.015);
  v.within("Post share", share(segs, 2), 76.23, 0.01);
  v.within("Post_prog share", share(segs, 1), 22.58, 0.01);
  v.within("Misc share", share(segs, 0), 1.20, 0.05);
  v.is_true("Insight 1: Post dominates (>70%)",
            segs[2].value / total(segs) > 0.7);
  return v.finish();
}
