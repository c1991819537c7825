// Reproduces Fig. 4: the percentage breakdown of time in an LLP_post
// (MD setup / barrier for MD / barrier for DBC / PIO copy / other).

#include "core/component_table.hpp"
#include "util.hpp"

using namespace bb;

int bbench::fig04_llp_post(const Args&) {
  bbench::header("bench_fig04_llp_post -- breakdown of an LLP_post",
                 "Fig. 4 (§4.1)");

  // Measure the substeps with the profiler, as §4.1 does.
  const std::vector<BarSegment> measured = profile_post_substeps(500);
  bbench::print_bar("measured (simulator, profiled)", measured);

  const auto paper = core::ComponentTable::paper();
  const std::vector<BarSegment> published = {
      {"MD setup", paper.md_setup},
      {"Barrier for MD", paper.barrier_md},
      {"Barrier for DBC", paper.barrier_dbc},
      {"PIO copy", paper.pio_copy},
      {"Other", paper.llp_post_misc},
  };
  bbench::print_bar("paper (Fig. 4)", published);

  // Validate the percentage shares against the figure.
  bbench::Validator v;
  v.within("MD setup %", share(measured, 0), 15.84, 0.06);
  v.within("Barrier for MD %", share(measured, 1), 9.88, 0.06);
  v.within("Barrier for DBC %", share(measured, 2), 12.01, 0.06);
  v.within("PIO copy %", share(measured, 3), 53.79, 0.06);
  v.within("Other %", share(measured, 4), 8.49, 0.08);
  v.is_true("PIO copy dominates (>50%)", share(measured, 3) > 50.0);
  return v.finish();
}
