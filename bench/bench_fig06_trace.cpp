// Reproduces Fig. 6: a snippet of the PCIe trace of downstream
// transactions during UCX's RDMA-write injection-rate benchmark
// (put_bw), filtered for downstream traffic -- 64-byte MWr TLPs, one per
// PIO post, whose timestamp deltas are the observed injection overhead.

#include <cstdio>

#include "benchlib/put_bw.hpp"
#include "core/analysis.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int bbench::fig06_trace(const Args&) {
  bbench::header("bench_fig06_trace -- downstream PCIe trace of put_bw",
                 "Fig. 6 (§4.2)");

  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::PutBwBenchmark bench(tb, {.messages = 3000, .warmup = 300});
  (void)bench.run();

  // Filter for downstream data transactions, as the figure does.
  const auto downs = tb.analyzer().trace().downstream_writes(64);
  std::printf("downstream MWr transactions captured: %zu\n\n", downs.size());

  std::printf("      time (ns)  dir   pkt       bytes  kind       delta (ns)\n");
  for (std::size_t i = 1000; i < 1016 && i < downs.size(); ++i) {
    std::printf("%15.2f  %-4s  %-8s  %5u  %-9s  %10.2f\n",
                downs[i].t.to_ns(), "down", "MWr", downs[i].bytes,
                downs[i].kind().c_str(),
                (downs[i].t - downs[i - 1].t).to_ns());
  }

  bbench::Validator v;
  v.is_true("one downstream 64B MWr per post",
            downs.size() >= 3000, std::to_string(downs.size()) + " records");
  bool all_64 = true;
  for (const auto& r : downs) all_64 = all_64 && r.bytes == 64;
  v.is_true("every post is a 64-byte PIO chunk", all_64);
  const auto deltas = core::observed_injection(tb.analyzer().trace(), 300);
  v.within("mean delta near observed injection overhead",
           deltas.summarize().mean, 282.33, 0.05);
  return v.finish();
}
