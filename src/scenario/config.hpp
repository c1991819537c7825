#pragma once
// Whole-system configuration and named presets.
//
// A SystemConfig aggregates every knob of the simulated machine. The
// default constructor *is* the paper's testbed: ThunderX2 @ 2 GHz,
// ConnectX-4 behind PCIe Gen3, Mellanox InfiniBand with one switch,
// MPICH/CH4 over UCX -- all calibrated to Table 1. The overlays apply the
// §7 what-if configurations as actual machine changes, so the simulated
// optimizations can be *run*, not just computed.

#include <concepts>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "coll/tuning.hpp"
#include "cpu/cost_model.hpp"
#include "fault/fault.hpp"
#include "hlp/ucp.hpp"
#include "llp/endpoint.hpp"
#include "llp/worker.hpp"
#include "net/fabric.hpp"
#include "nic/nic.hpp"
#include "pcie/link.hpp"
#include "pcie/root_complex.hpp"

namespace bb::scenario {

struct SystemConfig {
  std::string name = "thunderx2-cx4";
  std::uint64_t seed = 42;

  cpu::CpuCostModel cpu;
  pcie::LinkParams link;
  pcie::RcParams rc;
  nic::NicParams nic;
  net::NetParams net;
  llp::WorkerConfig llp_worker;
  /// Template for endpoints created by the testbed.
  llp::EndpointConfig endpoint;
  /// The MPI stack's UCP settings: every scenario::MpiStack and the
  /// models (core::ComponentTable, model::PtPtModel) read these.
  hlp::UcpConfig ucp;
  /// Fault-injection plan (disabled by default: all rates zero, no
  /// scheduled one-shots). When disabled the testbed wires no injector
  /// and the simulation is bit-identical to the error-free machine.
  fault::FaultConfig fault;
  /// Collective algorithm-selection thresholds (bb::coll).
  coll::CollTuning coll;

  /// Compose overlays onto a copy of this config, left to right:
  ///   presets::thunderx2_cx4().with(overlays::genz_switch(30),
  ///                                 overlays::faults(1e-3));
  /// Each overlay is resolved through ADL `apply_overlay(config, o)`, so
  /// callers can compose the named overlays below, a raw
  /// fault::FaultConfig, or any callable taking `SystemConfig&`.
  template <typename... Overlays>
  [[nodiscard]] SystemConfig with(Overlays&&... overlays) const {
    SystemConfig c = *this;
    (apply_overlay(c, std::forward<Overlays>(overlays)), ...);
    return c;
  }
};

namespace overlays {

/// A named, reusable config transform. Overlays relabel the config they
/// touch: applied to the baseline testbed they *replace* the name (so
/// single-change machines are named by their overlay); applied to
/// anything else they append "+label", making composed scenarios
/// self-describing.
struct Overlay {
  std::string label;
  std::function<void(SystemConfig&)> fn;
};

/// §7.1 integrated NIC: scale the I/O subsystem down by `io_reduction`.
Overlay integrated_nic(double io_reduction = 0.5);
/// §7.1 fast device memory: PIO copy at `pio_copy_ns`.
Overlay fast_device_memory(double pio_copy_ns = 15.0);
/// §7.2 Gen-Z-class switch.
Overlay genz_switch(double switch_ns = 30.0);
/// §7.2 PAM4+FEC wire: +`extra_wire_ns` latency, 2x serialization rate.
Overlay pam4_fec_wire(double extra_wire_ns = 300.0);
/// Tofu-D-like integration (80% I/O reduction).
Overlay tofu_d_like();
/// DoorBell + DMA descriptor/payload path instead of PIO+inline.
Overlay doorbell_dma();
/// One CQE per `period` ops. Changes only the UCT endpoint template
/// (put_bw, am_lat): MPI stacks already run at `ucp.signal_period`, which
/// is why this machine's osu_mr/osu_lat equal the testbed's.
Overlay unsignaled_completions(
    std::uint32_t period = hlp::UcpConfig{}.signal_period);
/// Total-store-order CPU: the LLP_post store barriers vanish.
Overlay tso_cpu();
/// Strip all stochastic jitter from the CPU cost model.
Overlay deterministic();
/// Replace the collective algorithm-selection thresholds.
Overlay coll_tuning(coll::CollTuning t);
/// Model receiver-port occupancy under incast (off by default).
Overlay incast_modeling(bool on = true);
/// Enable fault injection with an explicit plan.
Overlay faults(fault::FaultConfig f);
/// Convenience: uniform TLP corruption BER (the common ablation axis).
Overlay faults(double tlp_corrupt_prob);
/// Wire-level (fabric) faults with an explicit plan; the NIC's RC
/// transport recovers (docs/TRANSPORT.md).
Overlay wire_faults(fault::WireFaultConfig w);
/// Convenience: uniform fabric packet-loss probability (the wire-loss
/// ablation axis).
Overlay wire_loss(double drop_prob);

}  // namespace overlays

/// Apply a named overlay: relabel per the Overlay rule, then transform.
void apply_overlay(SystemConfig& c, const overlays::Overlay& o);
/// A raw FaultConfig composes directly: `cfg.with(fault_cfg)`.
void apply_overlay(SystemConfig& c, const fault::FaultConfig& f);
/// Any callable taking SystemConfig& composes as an anonymous overlay.
template <typename F>
  requires std::invocable<F&, SystemConfig&>
void apply_overlay(SystemConfig& c, F&& f) {
  f(c);
}

namespace presets {
// Named machines. Every other scenario is spelled as overlays on the
// testbed, e.g. thunderx2_cx4().with(overlays::genz_switch(30)), which
// the relabel rule names "genz-switch".

/// The paper's testbed (§3). Identical to a default-constructed config.
SystemConfig thunderx2_cx4();

/// The paper's testbed with every stochastic element removed: exact
/// component means, no hiccups. Timing becomes exactly predictable.
SystemConfig deterministic();

/// Every named machine: the two above plus the testbed under each
/// single-change overlay (integrated NIC at 50% I/O reduction, the rest
/// at their defaults). Names are unique; `bbsim list` prints them.
std::vector<SystemConfig> all();

}  // namespace presets

}  // namespace bb::scenario
