// Trace inspector: runs the am_lat ping-pong and walks through the
// paper's measurement methodology (§4.3) step by step on the captured
// PCIe trace -- the educational companion to `bbsim run table1`.

#include <cstdio>

#include "benchlib/am_lat.hpp"
#include "core/analysis.hpp"
#include "core/component_table.hpp"
#include "scenario/testbed.hpp"

using namespace bb;

int main() {
  std::printf("Running UCX-style am_lat (ping-pong) with the analyzer on\n"
              "node 0's PCIe link, tap just before the NIC (paper Fig. 3)...\n\n");

  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::AmLatBenchmark am(tb, {.iterations = 300, .warmup = 30});
  const auto res = am.run();
  const auto& trace = am.trace();

  std::printf("captured %zu packets; first ping-pong cycle:\n%s\n",
              trace.size(), trace.render(0, 14).c_str());

  std::printf("step 1 -- latency: the benchmark reports half the round\n"
              "trip: raw %.2f ns; minus half a measurement update (%.2f):\n"
              "adjusted %.2f ns (paper observes 1190.25).\n\n",
              res.half_rtt_raw.summarize().mean, 49.69 / 2.0,
              res.adjusted_mean_ns);

  const Samples pcie = core::measured_pcie(trace);
  std::printf("step 2 -- PCIe: NIC-initiated MWr -> RC Ack DLLP round\n"
              "trips, halved: %.2f ns over %zu pairs (paper: 137.49).\n\n",
              pcie.summarize().mean, pcie.size());

  const Samples net = core::measured_network(trace);
  std::printf("step 3 -- Network: downstream ping -> upstream completion\n"
              "spans, halved: %.2f ns (paper: 382.81 = wire + switch; the\n"
              "span includes NIC processing the analyzer cannot see).\n\n",
              net.summarize().mean);

  const auto table = core::ComponentTable::from_config(tb.config());
  const Samples rc = core::measured_rc_to_mem(
      trace, pcie.summarize().mean,
      table.llp_post() + table.measurement_update, table.llp_prog);
  std::printf("step 4 -- RC-to-MEM(8B): inbound-pong -> outbound-ping\n"
              "deltas minus 2xPCIe + LLP_prog + LLP_post (+ the\n"
              "benchmark's measurement update): %.2f ns (paper: 240.96).\n\n",
              rc.summarize().mean);

  std::printf("Each of these is the exact procedure §4.3 describes; see\n"
              "`bbsim run table1` for the full validated reproduction.\n");
  return 0;
}
