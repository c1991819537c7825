#pragma once
// The component-time table: every measured quantity of the paper's
// Table 1 plus the quantities §5-§6 derive from it, as plain data.
//
// The analytical models (injection, latency, what-if) consume this table
// symbolically, so they can run against:
//  * the paper's published numbers (`paper()`),
//  * the values a SystemConfig is calibrated to (`from_config()`), or
//  * values measured from a simulator run (`from_profiler()` composed by
//    the benches).

#include <string>

#include "scenario/config.hpp"

namespace bb::core {

struct ComponentTable {
  // --- LLP_post constituents (ns) ---
  double md_setup = 0;
  double barrier_md = 0;
  double barrier_dbc = 0;
  double pio_copy = 0;
  double llp_post_misc = 0;

  // --- LLP ---
  double llp_prog = 0;
  double busy_post = 0;
  double measurement_update = 0;

  // --- I/O and network ---
  double pcie = 0;
  double wire = 0;
  double switch_lat = 0;
  double rc_to_mem_8b = 0;
  double rc_to_mem_64b = 0;

  // --- HLP ---
  double mpich_isend = 0;
  double ucp_isend = 0;
  double mpich_rx_cb = 0;
  double ucp_rx_cb = 0;
  double mpich_after_progress = 0;
  double mpich_wait_total = 0;  // successful MPI_Wait, MPICH share
  double ucp_wait_total = 0;    // successful MPI_Wait, UCP share
  double hlp_tx_prog = 0;       // per-op send-progress overhead (HLP share)
  double misc_overall_inj = 0;  // busy posts amortized per op (§6)

  /// Unsignalled-completion period c of the MPI stack (§6).
  double completion_period = 1;

  // --- Derived quantities ---
  double llp_post() const {
    return md_setup + barrier_md + barrier_dbc + pio_copy + llp_post_misc;
  }
  double network() const { return wire + switch_lat; }
  double hlp_post() const { return mpich_isend + ucp_isend; }
  double hlp_rx_prog() const {
    return mpich_rx_cb + ucp_rx_cb + mpich_after_progress;
  }
  /// LLP share of send progress, amortized by completion moderation.
  double llp_tx_prog() const { return llp_prog / completion_period; }
  /// Misc of the LLP-level injection model (Eq. 1).
  double misc_llp_inj() const { return busy_post + measurement_update; }

  /// The paper's published Table 1 (ThunderX2 + ConnectX-4 + EDR).
  static ComponentTable paper();

  /// The table a simulator configuration is calibrated to: CPU costs from
  /// the cost model, PCIe from the link's measured-methodology value,
  /// wire/switch from the fabric, RC-to-MEM from the Root Complex.
  static ComponentTable from_config(const scenario::SystemConfig& cfg);

  /// Renders the Table-1 equivalent (optionally side-by-side with a
  /// second table, e.g. paper vs. measured).
  std::string render(const ComponentTable* other = nullptr,
                     const std::string& self_name = "this",
                     const std::string& other_name = "other") const;
};

}  // namespace bb::core
