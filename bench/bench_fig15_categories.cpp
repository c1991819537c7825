// Reproduces Fig. 15: the high-level breakdown of the end-to-end latency
// into CPU / I/O / Network, with per-category splits, plus §6's
// Insight 2 (no category dominates; 72.4% of the time is on-node).

#include "core/models.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int bbench::fig15_categories(const Args&) {
  bbench::header("bench_fig15_categories -- CPU / I/O / Network breakdown",
                 "Fig. 15 (§6, Insight 2)");

  const auto table = core::ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const auto cats = core::LatencyModel(table).fig15_categories();

  bbench::print_bar("End-to-end latency", cats.top);
  bbench::print_bar("CPU", cats.cpu);
  bbench::print_bar("I/O", cats.io);
  bbench::print_bar("Network", cats.network);

  bbench::Validator v;
  v.within("CPU share", share(cats.top, 0), 35.20, 0.01);
  v.within("I/O share", share(cats.top, 1), 37.20, 0.01);
  v.within("Network share", share(cats.top, 2), 27.60, 0.01);
  v.within("CPU: LLP share", share(cats.cpu, 0), 48.55, 0.01);
  v.within("CPU: HLP share", share(cats.cpu, 1), 51.45, 0.01);
  v.within("I/O: PCIe share", share(cats.io, 0), 53.30, 0.01);
  v.within("I/O: RC-to-MEM share", share(cats.io, 1), 46.70, 0.01);
  v.within("Network: Wire share", share(cats.network, 0), 71.79, 0.01);
  v.within("Network: Switch share", share(cats.network, 1), 28.21, 0.01);
  v.within("Insight 2: on-node share = 72.4%",
           share(cats.top, 0) + share(cats.top, 1), 72.40, 0.01);
  v.is_true("no category dominates (<50% each)",
            share(cats.top, 0) < 50 && share(cats.top, 1) < 50 &&
                share(cats.top, 2) < 50);
  return v.finish();
}
