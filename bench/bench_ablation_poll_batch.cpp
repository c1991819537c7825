// Ablation: the put_bw poll policy (§4.2). The model requires polling at
// least every p = gen_completion / LLP_post posts (~7.4 on the paper's
// testbed) to hide completion latency; this sweep shows the observed
// injection overhead across poll periods, including the synchronous
// p = 1 cliff the paper warns about.

#include <cstdio>

#include "benchlib/put_bw.hpp"
#include "core/models.hpp"
#include "exec/sweep.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

namespace {

double run(std::uint32_t poll_every, std::uint32_t txq_depth) {
  auto cfg = scenario::presets::thunderx2_cx4();
  cfg.endpoint.txq_depth = txq_depth;
  scenario::Testbed tb(cfg);
  bench::PutBwBenchmark b(tb, {.messages = 6000,
                               .warmup = 600,
                               .poll_every = poll_every});
  return b.run().nic_deltas.summarize().mean;
}

}  // namespace

int bbench::ablation_poll_batch(const Args& args) {
  bbench::header("bench_ablation_poll_batch -- poll-period sweep",
                 "§4.2's poll-period analysis (p >= gen_completion/LLP_post)");

  const auto model = core::InjectionModel(core::ComponentTable::from_config(
      scenario::presets::thunderx2_cx4()));
  std::printf("gen_completion = %.2f ns; minimum p = %.2f\n\n",
              model.gen_completion_ns(), model.min_poll_period());

  // Grid: the pipelined poll periods plus the (poll=1, depth=1)
  // synchronous degenerate case as the last point.
  struct Cfg {
    std::uint32_t poll_every;
    std::uint32_t txq_depth;
  };
  const auto sweep = exec::sweep<Cfg>({{2u, 128u},
                                       {4u, 128u},
                                       {8u, 128u},
                                       {16u, 128u},
                                       {32u, 128u},
                                       {64u, 128u},
                                       {1u, 1u}});
  const auto res = exec::run_sweep(
      sweep,
      [](const Cfg& c, exec::Job&) { return run(c.poll_every, c.txq_depth); },
      args.exec);
  bbench::note_exec("poll-period sweep", res);

  std::printf("%-12s %20s\n", "poll every", "observed inj (ns)");
  double p16 = 0;
  for (std::size_t i = 0; i + 1 < sweep.points.size(); ++i) {
    const std::uint32_t p = sweep.points[i].poll_every;
    std::printf("%-12u %20.2f\n", p, res.values[i]);
    if (p == 16) p16 = res.values[i];
  }

  // The synchronous case: TxQ depth 1 means every post waits for the
  // previous completion -- the p = 1 degenerate case of §4.2.
  const double sync_inj = res.values.back();
  std::printf("%-12s %20.2f  (TxQ depth 1: synchronous posts)\n", "sync",
              sync_inj);

  bbench::Validator v;
  v.is_true("pipelined polling keeps overhead near CPU_time",
            p16 < 300.0);
  v.is_true("synchronous posts pay gen_completion",
            sync_inj > model.gen_completion_ns());
  v.is_true("sync/pipelined gap is several-fold", sync_inj > 3.0 * p16);
  return v.finish();
}
