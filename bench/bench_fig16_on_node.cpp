// Reproduces Fig. 16: the breakdown of time spent on the node --
// initiator vs target, CPU vs I/O on each, and the target's I/O split --
// plus §6's Insight 3 (most on-node time is on the target; software
// dominates the initiator because PIO leaves it a single PCIe
// transaction).

#include "core/models.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int bbench::fig16_on_node(const Args&) {
  bbench::header("bench_fig16_on_node -- time spent on node",
                 "Fig. 16 (§6, Insight 3)");

  const auto table = core::ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const auto on = core::LatencyModel(table).fig16_on_node();

  bbench::print_bar("On-node", on.split);
  bbench::print_bar("Initiator", on.initiator);
  bbench::print_bar("Target", on.target);
  bbench::print_bar("Target I/O", on.target_io);

  bbench::Validator v;
  v.within("Initiator share", share(on.split, 0), 33.80, 0.01);
  v.within("Target share", share(on.split, 1), 66.20, 0.01);
  v.within("Initiator CPU share", share(on.initiator, 0), 59.50, 0.01);
  v.within("Initiator I/O share", share(on.initiator, 1), 40.50, 0.01);
  v.within("Target CPU share", share(on.target, 0), 43.07, 0.01);
  v.within("Target I/O share", share(on.target, 1), 56.93, 0.01);
  v.within("Target I/O: RC-to-MEM share", share(on.target_io, 0), 63.67, 0.01);
  v.within("Target I/O: PCIe share", share(on.target_io, 1), 36.33, 0.01);
  v.is_true("Insight 3: majority of on-node time on target",
            share(on.split, 1) > 50);
  v.is_true("Insight 3: software majority on initiator",
            share(on.initiator, 0) > 50);
  return v.finish();
}
