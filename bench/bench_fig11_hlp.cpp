// Reproduces Fig. 11: the breakdown of time in the HLP between MPICH and
// UCP, for MPI_Isend initiation and for a successful receive-side
// MPI_Wait.

#include "core/models.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int bbench::fig11_hlp(const Args&) {
  bbench::header("bench_fig11_hlp -- MPICH vs UCP time in the HLP",
                 "Fig. 11 (§5)");

  const auto table = core::ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const core::LatencyModel model(table);
  const auto split = model.fig11_split();

  bbench::print_bar("MPI_Isend (HLP share)", split.isend);
  bbench::print_bar("RX MPI_Wait (successful)", split.rx_wait);

  bbench::Validator v;
  v.within("Isend UCP share", share(split.isend, 0), 8.24, 0.01);
  v.within("Isend MPICH share", share(split.isend, 1), 91.76, 0.01);
  v.within("Wait UCP share", share(split.rx_wait, 0), 33.91, 0.01);
  v.within("Wait MPICH share", share(split.rx_wait, 1), 66.09, 0.01);
  v.within("successful MPI_Wait total (443.8 ns)",
           split.rx_wait[0].value + split.rx_wait[1].value, 443.8, 0.001);
  return v.finish();
}
