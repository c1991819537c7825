// Ablation: unsignalled-completion moderation (§6, [14]). Sweeps the
// signalling period c and reports the resulting per-message overhead of
// the MPI message-rate loop: at c = 1 every message pays an LLP_prog; at
// UCX's c = 64 the progress cost amortizes to under a nanosecond.

#include <cstdio>

#include "benchlib/osu.hpp"
#include "exec/sweep.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

namespace {
struct Point {
  double per_msg_ns;
  double cqe_per_msg;
};
}  // namespace

int bbench::ablation_completion(const Args& args) {
  bbench::header(
      "bench_ablation_completion -- unsignalled-completion period sweep",
      "§6's unsignalled-completions discussion (design ablation)");

  const auto sweep =
      exec::sweep<std::uint32_t>({1u, 2u, 4u, 8u, 16u, 32u, 64u});
  const auto res = exec::run_sweep(
      sweep,
      [](std::uint32_t c, exec::Job&) {
        scenario::Testbed tb(scenario::presets::thunderx2_cx4());
        bench::OsuMessageRate b(tb, {.windows = 150,
                                     .warmup_windows = 15,
                                     .signal_period = c});
        const auto r = b.run();
        return Point{r.cpu_per_msg_ns,
                     static_cast<double>(tb.node(0).nic.cqes_written()) /
                         static_cast<double>(tb.node(0).nic.messages_injected())};
      },
      args.exec);
  bbench::note_exec("completion-period sweep", res);

  std::printf("%-10s %18s %14s\n", "period c", "per-msg ns", "CQEs/msg");
  double at1 = 0, at64 = 0;
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const std::uint32_t c = sweep.points[i];
    std::printf("%-10u %18.2f %14.4f\n", c, res.values[i].per_msg_ns,
                res.values[i].cqe_per_msg);
    if (c == 1) at1 = res.values[i].per_msg_ns;
    if (c == 64) at64 = res.values[i].per_msg_ns;
  }

  std::printf("\nmoderation saves %.2f ns/msg (c=1 -> c=64)\n", at1 - at64);

  bbench::Validator v;
  v.is_true("per-message overhead decreases with moderation", at64 < at1);
  // One LLP_prog (61.63) re-appears per message at c=1 (minus the ~1 ns
  // amortized share at c=64).
  v.within("saving ~ one LLP_prog per message", at1 - at64, 61.63, 0.30);
  return v.finish();
}
