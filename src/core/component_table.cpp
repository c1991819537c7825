#include "core/component_table.hpp"

#include <vector>

#include "common/table.hpp"

namespace bb::core {

ComponentTable ComponentTable::paper() {
  ComponentTable t;
  // Table 1 of the paper, verbatim.
  t.md_setup = 27.78;
  t.barrier_md = 17.33;
  t.barrier_dbc = 21.07;
  t.pio_copy = 94.25;
  t.llp_post_misc = 14.99;
  t.llp_prog = 61.63;
  t.busy_post = 8.99;
  t.measurement_update = 49.69;
  t.pcie = 137.49;
  t.wire = 274.81;
  t.switch_lat = 108.0;
  t.rc_to_mem_8b = 240.96;
  // Not published; the paper uses RC-to-MEM(64B) only inside
  // gen_completion. Extrapolated with the same affine model our RC uses.
  t.rc_to_mem_64b = 260.56;
  t.mpich_isend = 24.37;
  t.ucp_isend = 2.19;
  t.mpich_rx_cb = 47.99;
  t.ucp_rx_cb = 139.78;
  t.mpich_after_progress = 36.89;
  t.mpich_wait_total = 293.29;
  t.ucp_wait_total = 150.51;
  t.hlp_tx_prog = 58.86;  // Post_prog 59.82 minus amortized LLP 0.96 (§6)
  t.misc_overall_inj = 3.17;
  t.completion_period = 64;
  return t;
}

ComponentTable ComponentTable::from_config(const scenario::SystemConfig& cfg) {
  ComponentTable t;
  const auto& c = cfg.cpu;
  t.md_setup = c.md_setup.mean_ns;
  t.barrier_md = c.barrier_store_md.mean_ns;
  t.barrier_dbc = c.barrier_store_dbc.mean_ns;
  t.pio_copy = c.pio_copy_64b.mean_ns;
  t.llp_post_misc = c.llp_post_misc.mean_ns;
  t.llp_prog = c.llp_prog.mean_ns;
  t.busy_post = c.busy_post.mean_ns;
  t.measurement_update = c.timer_read.mean_ns;
  t.pcie = cfg.link.measured_pcie_ns();
  t.wire = cfg.net.wire_latency_ns;
  t.switch_lat = cfg.net.switch_latency_ns * cfg.net.num_switches;
  t.rc_to_mem_8b = cfg.rc.rc_to_mem(8).to_ns();
  t.rc_to_mem_64b = cfg.rc.rc_to_mem(64).to_ns();
  t.mpich_isend = c.mpich_isend.mean_ns;
  t.ucp_isend = c.ucp_isend.mean_ns;
  t.mpich_rx_cb = c.mpich_rx_callback.mean_ns;
  t.ucp_rx_cb = c.ucp_rx_callback.mean_ns;
  t.mpich_after_progress = c.mpich_after_progress.mean_ns;
  t.mpich_wait_total = c.mpich_wait_fixed.mean_ns + c.mpich_rx_callback.mean_ns +
                       c.mpich_after_progress.mean_ns;
  t.ucp_wait_total = c.ucp_progress_iter.mean_ns + c.ucp_rx_callback.mean_ns;
  t.hlp_tx_prog = c.hlp_tx_prog.mean_ns;
  t.misc_overall_inj = 3.17;  // busy-post average; emergent in the sim
  t.completion_period = cfg.ucp.signal_period;
  return t;
}

std::string ComponentTable::render(const ComponentTable* other,
                                   const std::string& self_name,
                                   const std::string& other_name) const {
  struct Row {
    const char* name;
    double a;
    double b;
  };
  auto val = [](const ComponentTable* t, double ComponentTable::*m) {
    return t ? t->*m : 0.0;
  };
  const std::vector<Row> rows = {
      {"Message descriptor setup", md_setup, val(other, &ComponentTable::md_setup)},
      {"Barrier for message descriptor", barrier_md, val(other, &ComponentTable::barrier_md)},
      {"Barrier for DoorBell counter", barrier_dbc, val(other, &ComponentTable::barrier_dbc)},
      {"PIO copy (64 bytes)", pio_copy, val(other, &ComponentTable::pio_copy)},
      {"Miscellaneous in LLP_post", llp_post_misc, val(other, &ComponentTable::llp_post_misc)},
      {"LLP_post (total of above)", llp_post(), other ? other->llp_post() : 0},
      {"LLP_prog", llp_prog, val(other, &ComponentTable::llp_prog)},
      {"Busy post", busy_post, val(other, &ComponentTable::busy_post)},
      {"Measurement update", measurement_update, val(other, &ComponentTable::measurement_update)},
      {"Misc in Inj_overhead (total of above)", misc_llp_inj(), other ? other->misc_llp_inj() : 0},
      {"PCIe for a 64-byte payload", pcie, val(other, &ComponentTable::pcie)},
      {"Wire", wire, val(other, &ComponentTable::wire)},
      {"Switch", switch_lat, val(other, &ComponentTable::switch_lat)},
      {"Network (total of above)", network(), other ? other->network() : 0},
      {"RC-to-MEM(8B)", rc_to_mem_8b, val(other, &ComponentTable::rc_to_mem_8b)},
      {"MPI_Isend in MPICH", mpich_isend, val(other, &ComponentTable::mpich_isend)},
      {"MPI_Isend in UCP", ucp_isend, val(other, &ComponentTable::ucp_isend)},
      {"Callback for a completed MPI_Irecv in MPICH", mpich_rx_cb, val(other, &ComponentTable::mpich_rx_cb)},
      {"Successful MPI_Wait for MPI_Irecv in MPICH", mpich_wait_total, val(other, &ComponentTable::mpich_wait_total)},
      {"Callback for a completed MPI_Irecv in UCP", ucp_rx_cb, val(other, &ComponentTable::ucp_rx_cb)},
      {"Successful MPI_Wait for MPI_Irecv in UCP", ucp_wait_total, val(other, &ComponentTable::ucp_wait_total)},
  };

  std::vector<std::string> header = {"Component", self_name + " (ns)"};
  if (other) header.push_back(other_name + " (ns)");
  TextTable table(header);
  for (const auto& r : rows) {
    std::vector<std::string> cells = {r.name, TextTable::num(r.a)};
    if (other) cells.push_back(TextTable::num(r.b));
    table.add_row(std::move(cells));
  }
  return table.render();
}

}  // namespace bb::core
