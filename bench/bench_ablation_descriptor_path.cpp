// Ablation: PIO + inlining vs the classic DoorBell + DMA descriptor path
// (§2). The paper explains that PIO with inlining eliminates both DMA
// reads -- two PCIe round trips -- for small messages; this bench
// quantifies the gap on the simulated testbed.

#include <cstdio>

#include "benchlib/am_lat.hpp"
#include "exec/sweep.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

namespace {

struct PathResult {
  double latency_ns;
  std::uint64_t dma_reads;
};

PathResult run(bool pio, bool inline_payload) {
  auto cfg = scenario::presets::thunderx2_cx4();
  cfg.endpoint.use_pio = pio;
  cfg.endpoint.inline_payload = inline_payload;
  scenario::Testbed tb(cfg);
  bench::AmLatBenchmark b(tb, {.iterations = 1500, .warmup = 150});
  PathResult r;
  r.latency_ns = b.run().adjusted_mean_ns;
  r.dma_reads = tb.node(0).nic.dma_reads_issued();
  return r;
}

}  // namespace

int bbench::ablation_descriptor_path(const Args& args) {
  bbench::header("bench_ablation_descriptor_path -- PIO+inline vs DoorBell+DMA",
                 "§2's descriptor-path discussion (design ablation)");

  struct Path {
    bool pio;
    bool inline_payload;
  };
  const auto res = exec::run_sweep(
      exec::sweep<Path>({{true, true}, {false, true}, {false, false}}),
      [](const Path& p, exec::Job&) { return run(p.pio, p.inline_payload); },
      args.exec);
  bbench::note_exec("descriptor-path ablation", res);

  const PathResult pio = res.values[0];
  const PathResult db_inline = res.values[1];
  const PathResult db_dma = res.values[2];

  std::printf("%-28s %14s %12s\n", "path", "latency (ns)", "DMA reads");
  std::printf("%-28s %14.2f %12llu\n", "PIO + inline", pio.latency_ns,
              static_cast<unsigned long long>(pio.dma_reads));
  std::printf("%-28s %14.2f %12llu\n", "DoorBell + inline MD",
              db_inline.latency_ns,
              static_cast<unsigned long long>(db_inline.dma_reads));
  std::printf("%-28s %14.2f %12llu\n", "DoorBell + MD + payload fetch",
              db_dma.latency_ns,
              static_cast<unsigned long long>(db_dma.dma_reads));

  const double one_rt = db_inline.latency_ns - pio.latency_ns;
  const double two_rt = db_dma.latency_ns - pio.latency_ns;
  std::printf("\nDMA-read penalty: +%.0f ns (one fetch), +%.0f ns (two)\n",
              one_rt, two_rt);

  bbench::Validator v;
  v.is_true("PIO path issues no DMA reads", pio.dma_reads == 0);
  v.is_true("DoorBell+inline issues ~1 DMA read per message",
            db_inline.dma_reads > 0);
  v.is_true("inline elides the payload fetch",
            db_dma.dma_reads > db_inline.dma_reads);
  v.is_true("each DMA read costs a PCIe round trip (>250 ns)",
            one_rt > 250.0 && two_rt > one_rt + 250.0);
  v.is_true("PIO is the fastest path", pio.latency_ns < db_inline.latency_ns);
  return v.finish();
}
