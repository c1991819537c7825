// Reproduces Fig. 14: the HLP/LLP split during initiation, TX progress,
// and RX progress, plus §6's Insight 4 (RX progress is 4.78x TX
// progress, HLP dominating both).

#include "core/models.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int bbench::fig14_layer_split(const Args&) {
  bbench::header("bench_fig14_layer_split -- HLP vs LLP by phase",
                 "Fig. 14 (§6, Insight 4)");

  const auto table = core::ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const auto split = core::LatencyModel(table).fig14_split();

  bbench::print_bar("Initiation", split.initiation);
  bbench::print_bar("TX Progress", split.tx_progress);
  bbench::print_bar("RX Progress", split.rx_progress);

  bbench::Validator v;
  v.within("Initiation LLP share", share(split.initiation, 0), 86.85, 0.01);
  v.within("Initiation HLP share", share(split.initiation, 1), 13.15, 0.01);
  v.within("TX progress LLP share", share(split.tx_progress, 0), 1.61, 0.02);
  v.within("TX progress HLP share", share(split.tx_progress, 1), 98.39, 0.01);
  v.within("RX progress LLP share", share(split.rx_progress, 0), 21.53, 0.01);
  v.within("RX progress HLP share", share(split.rx_progress, 1), 78.47, 0.01);
  v.within("Insight 4: RX progress = 4.78x TX progress",
           total(split.rx_progress) / total(split.tx_progress), 4.78, 0.01);
  v.is_true("HLP dominates both progress phases",
            share(split.tx_progress, 1) > 50 &&
                share(split.rx_progress, 1) > 50);
  return v.finish();
}
