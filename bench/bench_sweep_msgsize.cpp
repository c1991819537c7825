// Extension bench: message-size sweep.
//
// The paper's introduction argues the breakdown matters for *small*
// messages: "the latency of sending a large message is driven by the
// time spent in the network components... the time spent in the
// software stack during the propagation of a small message is a
// considerable portion of the overall latency". This sweep runs am_lat
// across sizes and attributes each observed latency to CPU vs
// everything else, showing the crossover as payload serialization and
// memory-commit costs grow while the CPU share stays flat.

#include <cstdio>
#include <vector>

#include "benchlib/am_lat.hpp"
#include "exec/sweep.hpp"
#include "model/alpha_beta.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

namespace {

struct Point {
  std::uint32_t bytes;
  double latency_ns;
  double cpu_share;
};

Point run(std::uint32_t bytes) {
  // Keep inlining for everything that fits a few PIO chunks; beyond the
  // inline limit the payload is fetched by DMA (the realistic path).
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::AmLatBenchmark b(tb, {.iterations = 800,
                               .warmup = 80,
                               .bytes = bytes,
                               .capture_trace = false});
  Point p;
  p.bytes = bytes;
  p.latency_ns = b.run().adjusted_mean_ns;
  // CPU share: post + poll work (independent of size up to chunking).
  const double cpu = model::PtPtModel(tb.config()).llp_post_ns(bytes) +
                     tb.config().cpu.llp_prog.mean_ns;
  p.cpu_share = cpu / p.latency_ns;
  return p;
}

}  // namespace

int bbench::sweep_msgsize(const Args& args) {
  bbench::header("bench_sweep_msgsize -- latency vs payload size",
                 "extension of §1's small- vs large-message argument");

  // One job per payload size; collected in grid order, so the table is
  // identical at any --jobs value.
  const auto sweep = exec::sweep<std::uint32_t>(
      {8u, 32u, 64u, 128u, 512u, 1024u, 4096u});
  const auto res = exec::run_sweep(
      sweep, [](std::uint32_t bytes, exec::Job&) { return run(bytes); },
      args.exec);
  bbench::note_exec("msgsize sweep", res);

  std::printf("%-10s %16s %12s\n", "bytes", "latency (ns)", "CPU share");
  const std::vector<Point>& pts = res.values;
  for (const Point& p : pts) {
    std::printf("%-10u %16.2f %11.1f%%\n", p.bytes, p.latency_ns,
                p.cpu_share * 100.0);
  }

  bbench::Validator v;
  v.is_true("latency grows with size",
            pts.back().latency_ns > pts.front().latency_ns);
  v.is_true("CPU share shrinks with size",
            pts.back().cpu_share < pts.front().cpu_share);
  v.is_true("CPU is a considerable share for 8 B (>20%)",
            pts.front().cpu_share > 0.20);
  v.is_true("CPU share minor at 4 KiB (<15%)", pts.back().cpu_share < 0.15);
  return v.finish();
}
