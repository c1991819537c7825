#pragma once
// The machine: the two-node testbed of §3 (Fig. 3) by default -- node 0
// (the initiator) and node 1 -- or any number of identical nodes for
// multi-rank workloads. Each node has a CPU core, host memory, a PCIe
// link + Root Complex, and a NIC; the NICs are connected by the
// interconnect fabric, which routes by destination; a passive PCIe
// analyzer taps one node's link just before its NIC (node 0 unless the
// constructor places it elsewhere).

#include <deque>
#include <optional>

#include "cpu/core.hpp"
#include "fault/fault.hpp"
#include "llp/endpoint.hpp"
#include "llp/worker.hpp"
#include "net/fabric.hpp"
#include "nic/nic.hpp"
#include "nic/queues.hpp"
#include "pcie/link.hpp"
#include "pcie/root_complex.hpp"
#include "pcie/trace.hpp"
#include "prof/profiler.hpp"
#include "scenario/config.hpp"
#include "sim/signal.hpp"
#include "sim/simulator.hpp"

namespace bb::scenario {

class Testbed {
 public:
  struct Node {
    Node(sim::Simulator& sim, net::Fabric& fabric, const SystemConfig& cfg,
         int id, pcie::Analyzer* tap);

    cpu::Core core;
    prof::Profiler profiler;
    nic::HostMemory host;
    /// Per-node fault injector (inert when cfg.fault is disabled); must
    /// precede `link`, which captures it at construction.
    fault::FaultInjector injector;
    pcie::Link link;
    pcie::RootComplex rc;
    nic::Nic nic;
    llp::Worker worker;
    /// Fires whenever a DMA write (CQE or payload) becomes visible in this
    /// node's memory -- the basis of interrupt-driven completion (§2).
    sim::Signal cq_interrupt;
  };

  /// `analyzer_node` places the passive PCIe tap: any node's link may be
  /// observed, not just the initiator's (the paper moves the analyzer to
  /// whichever side the experiment studies).
  explicit Testbed(SystemConfig cfg, int node_count = 2,
                   int analyzer_node = 0);

  sim::Simulator& sim() { return sim_; }
  const SystemConfig& config() const { return cfg_; }
  net::Fabric& fabric() { return fabric_; }
  /// The analyzer tapping one node's link (§3: "just before the NIC").
  pcie::Analyzer& analyzer() { return analyzer_; }
  int analyzer_node() const { return analyzer_node_; }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i);

  /// Merged fault/recovery accounting across every node's injector.
  fault::FaultStats fault_stats() const;
  /// Rendered fault report (empty table when injection is disabled).
  std::string fault_report() const;

  /// Merged reliable-transport accounting: the fabric's wire-side packet
  /// fates plus every NIC's RC protocol activity (docs/TRANSPORT.md).
  net::TransportStats net_stats() const;

  /// Creates an endpoint on `node_id` targeting the peer, using the config
  /// template (optionally overridden). Returned reference is stable.
  llp::Endpoint& add_endpoint(int node_id,
                              std::optional<llp::EndpointConfig> cfg = {});
  /// An endpoint on `node_id` targeting `peer_node`, on a fresh QP.
  llp::Endpoint& add_endpoint(int node_id, int peer_node,
                              std::optional<llp::EndpointConfig> cfg = {});

  /// An additional CPU core with its own LLP worker on `node_id` -- the
  /// fine-grained multi-core scenario the paper's introduction motivates
  /// (every core communicating independently through the shared NIC).
  struct WorkerCore {
    cpu::Core core;
    llp::Worker worker;
    WorkerCore(sim::Simulator& sim, const cpu::CpuCostModel& m,
               nic::HostMemory& host, const llp::WorkerConfig& wc,
               std::string name)
        : core(sim, m, std::move(name)), worker(core, host, wc) {}
  };
  WorkerCore& add_core(int node_id);

  /// An endpoint driven by an extra core's worker, on a fresh QP.
  llp::Endpoint& add_endpoint(WorkerCore& wc, int node_id,
                              std::optional<llp::EndpointConfig> cfg = {});

 private:
  SystemConfig cfg_;
  sim::Simulator sim_;
  /// Wire-level fault source shared by the fabric (inert when
  /// cfg.fault.wire is disabled); must precede `fabric_`, which captures
  /// it at construction.
  fault::WireInjector wire_injector_;
  net::Fabric fabric_;
  pcie::Analyzer analyzer_;
  int analyzer_node_;
  std::deque<Node> nodes_;
  std::deque<llp::Endpoint> endpoints_;
  std::deque<WorkerCore> extra_cores_;
  std::uint32_t next_qp_ = 1;  // fresh qp ids (template endpoints use qp 0)
};

/// The N-node spelling of the same machine.
using Cluster = Testbed;

}  // namespace bb::scenario
