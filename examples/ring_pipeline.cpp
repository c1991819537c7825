// Ring allreduce on bb::coll: N ranks reduce-scatter their vectors
// around a ring, then allgather the reduced chunks -- the schedule that
// turned the paper's per-message breakdown into the collective every
// deep-learning framework runs. Demonstrates the coll::World MPI
// communicator, forced algorithm selection, and how the analytical
// alpha-beta model predicts the schedule from the same SystemConfig the
// simulator runs.

#include <cstdio>
#include <vector>

#include "benchlib/osu_coll.hpp"
#include "model/alpha_beta.hpp"
#include "scenario/testbed.hpp"

using namespace bb;

namespace {

constexpr int kRanks = 4;
constexpr std::uint32_t kBytes = 4096;  // 512 doubles per rank

sim::Task<void> rank_loop(coll::Communicator& c, int rank, bool* ok) {
  // Each rank contributes rank+1 in every slot; the sum over ranks is
  // 1+2+...+N, checkable in every element at every rank.
  std::vector<double> v(kBytes / 8, static_cast<double>(rank + 1));
  co_await coll::allreduce(c, kBytes, v, coll::ReduceOp::kSum,
                           coll::Algo::kRingAllreduce);
  const double expect = kRanks * (kRanks + 1) / 2.0;
  bool good = true;
  for (double x : v) good = good && x == expect;
  *ok = good;
}

}  // namespace

int main() {
  std::printf("ring allreduce: %d ranks, %u bytes (%u doubles)\n\n", kRanks,
              kBytes, kBytes / 8);

  scenario::Cluster cl(scenario::presets::thunderx2_cx4(), kRanks);
  coll::World world(cl);
  bool ok[kRanks] = {};
  for (int r = 0; r < kRanks; ++r) {
    cl.sim().spawn(rank_loop(world.comm(r), r, &ok[r]), "ring-allreduce");
  }
  cl.sim().run();
  for (int r = 0; r < kRanks; ++r) {
    std::printf("rank %d: %s\n", r, ok[r] ? "reduced vector correct" : "WRONG");
  }

  // Timed run (epoch-aligned OSU loop) vs the alpha-beta forecast.
  scenario::Cluster timed(scenario::presets::deterministic(), kRanks);
  coll::World tworld(timed);
  bench::OsuCollConfig cfg;
  cfg.bytes = kBytes;
  cfg.iterations = 20;
  cfg.warmup = 5;
  cfg.algo = coll::Algo::kRingAllreduce;
  bench::OsuColl bench(tworld, bench::OsuColl::Kind::kAllreduce, cfg);
  const double sim_ns = bench.run().mean_ns();
  const model::CollModel m(timed.config());
  const double model_ns =
      m.allreduce_ns(kRanks, kBytes, coll::Algo::kRingAllreduce);

  std::printf("\nsimulated ring allreduce: %.1f ns\n", sim_ns);
  std::printf("alpha-beta model:         %.1f ns (%.1f%% err)\n", model_ns,
              (model_ns - sim_ns) / sim_ns * 100.0);
  std::printf("=> 2(N-1) chunk steps; every per-message term the paper\n"
              "   breaks down (Fig. 10) multiplies straight into the\n"
              "   collective's critical path.\n");
  return 0;
}
