// Rank-count sweep: runs each collective's two algorithm families side
// by side from 2 to 16 ranks (non-powers-of-two included) and prints
// simulated next to modeled latency, so the algorithm-selection
// thresholds in CollTuning can be read straight off the crossovers.
//
// Validation is intentionally loose here: the hard model band lives in
// coll_osu. This sweep asserts only structural facts -- both
// algorithms complete everywhere, and the model ranks the algorithms in
// the same order as the simulator at the sweep endpoints.

#include <cstdio>
#include <vector>

#include "benchlib/osu_coll.hpp"
#include "exec/sweep.hpp"
#include "model/alpha_beta.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

namespace {

using bb::bench::OsuColl;
using bb::coll::Algo;

double simulate(const bb::scenario::SystemConfig& cfg, int ranks,
                OsuColl::Kind kind, std::uint32_t bytes, Algo algo,
                std::uint64_t iterations) {
  return bbench::simulate_coll(cfg, ranks, kind,
                               {.iterations = iterations,
                                .warmup = iterations / 4 + 1,
                                .bytes = bytes,
                                .algo = algo});
}

struct Pair {
  const char* title;
  OsuColl::Kind kind;
  std::uint32_t bytes;
  Algo a;
  Algo b;
};

}  // namespace

int bbench::sweep_ranks(const Args& args) {
  bbench::header("bench_sweep_ranks: algorithm families across rank counts",
                 "selection thresholds in the spirit of MPICH/UCX tuning");

  const bb::scenario::SystemConfig cfg = bb::scenario::presets::deterministic();
  bb::model::CollModel model(cfg);
  const std::uint64_t iters = args.smoke ? 6 : 24;
  const std::vector<int> ranks =
      args.smoke ? std::vector<int>{2, 5, 8}
                 : std::vector<int>{2, 3, 4, 5, 6, 8, 11, 13, 16};

  const std::vector<Pair> pairs = {
      {"barrier 8B", OsuColl::Kind::kBarrier, 8, Algo::kDissemination,
       Algo::kRingToken},
      {"bcast 4KiB", OsuColl::Kind::kBcast, 4096, Algo::kBinomialTree,
       Algo::kChain},
      {"allgather 64B", OsuColl::Kind::kAllgather, 64, Algo::kBruck,
       Algo::kRingAllgather},
      {"allreduce 2KiB", OsuColl::Kind::kAllreduce, 2048,
       Algo::kRecursiveDoubling, Algo::kRingAllreduce},
  };

  bbench::Validator v;

  // One job per (collective pair, rank count): both algorithms of a pair
  // run in the same job so the per-row sim costs stay balanced.
  struct Cell {
    double sim_a;
    double sim_b;
  };
  const auto grid = bb::exec::sweep(
      bb::exec::grid(std::vector<std::size_t>{0, 1, 2, 3}, ranks));
  const auto res = bb::exec::run_sweep(
      grid,
      [&](const std::tuple<std::size_t, int>& pt, bb::exec::Job&) {
        const Pair& p = pairs[std::get<0>(pt)];
        const int n = std::get<1>(pt);
        return Cell{simulate(cfg, n, p.kind, p.bytes, p.a, iters),
                    simulate(cfg, n, p.kind, p.bytes, p.b, iters)};
      },
      args.exec);
  bbench::note_exec("rank sweep", res);

  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    const Pair& p = pairs[pi];
    std::printf("%s\n", p.title);
    std::printf("  %5s | %14s %14s | %14s %14s\n", "ranks",
                bb::coll::algo_name(p.a), "(model)", bb::coll::algo_name(p.b),
                "(model)");
    double first_sim_a = 0, first_sim_b = 0, last_sim_a = 0, last_sim_b = 0;
    double first_mdl_a = 0, first_mdl_b = 0, last_mdl_a = 0, last_mdl_b = 0;
    for (std::size_t ri = 0; ri < ranks.size(); ++ri) {
      const int n = ranks[ri];
      const Cell& cell = res.values[pi * ranks.size() + ri];
      const double sa = cell.sim_a;
      const double sb = cell.sim_b;
      const double ma = model_coll(model, p.kind, n, p.bytes, p.a);
      const double mb = model_coll(model, p.kind, n, p.bytes, p.b);
      std::printf("  %5d | %14.1f %14.1f | %14.1f %14.1f\n", n, sa, ma, sb,
                  mb);
      v.is_true("simulated latency positive", sa > 0 && sb > 0);
      if (n == ranks.front()) {
        first_sim_a = sa;
        first_sim_b = sb;
        first_mdl_a = ma;
        first_mdl_b = mb;
      }
      if (n == ranks.back()) {
        last_sim_a = sa;
        last_sim_b = sb;
        last_mdl_a = ma;
        last_mdl_b = mb;
      }
    }
    // The model must agree with the simulator about which algorithm wins
    // at the endpoints of the sweep (that agreement is what makes the
    // CollTuning thresholds trustworthy).
    char what[96];
    std::snprintf(what, sizeof(what), "%s: model orders algos like sim (n=%d)",
                  p.title, ranks.front());
    v.is_true(what,
              (first_sim_a <= first_sim_b) == (first_mdl_a <= first_mdl_b));
    std::snprintf(what, sizeof(what), "%s: model orders algos like sim (n=%d)",
                  p.title, ranks.back());
    v.is_true(what, (last_sim_a <= last_sim_b) == (last_mdl_a <= last_mdl_b));
    std::printf("\n");
  }

  return v.finish();
}
