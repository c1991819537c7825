#pragma once
// The interconnect fabric between two nodes: physical wire plus an
// optional chain of switches.
//
// Timing: every packet incurs the one-way wire latency, one switch latency
// per hop, and a bandwidth-limited serialization gap at the sender. The
// defaults reproduce the paper's measurements: Wire = 274.81 ns for a
// direct NIC-to-NIC connection, Switch = 108 ns per switch (Table 1).
//
// Faults: with a fault::WireInjector attached and enabled, packets can be
// dropped, corrupted (delivered but discarded at the receiver's ICRC
// check), duplicated or reordered (docs/TRANSPORT.md). A dropped packet
// still consumed its sender serialization slot; a corrupt one additionally
// occupies the wire and the receiver port. With the injector absent or
// disabled the delivery path is untouched and runs are bit-identical to a
// fabric built without one.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hpp"
#include "fault/fault.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace bb::net {

struct NetParams {
  /// One-way physical-wire latency for a direct connection (incl. SerDes).
  double wire_latency_ns = 274.81;
  /// Store-and-forward latency added by each switch.
  double switch_latency_ns = 108.0;
  /// Number of switches between the nodes (the paper's setup has one).
  int num_switches = 1;
  /// Sender occupancy per payload byte (EDR ~ 12.5 GB/s => 0.08 ns/B).
  double serialize_ns_per_byte = 0.08;
  /// Fixed per-packet framing bytes for serialization purposes.
  std::uint32_t header_bytes = 30;
  /// Model receiver-port occupancy: packets converging on one node
  /// (incast, the many-senders pattern collectives create) queue behind
  /// each other at the destination at the same serialization rate the
  /// sender pays. Off by default -- the two-node testbed cannot incast,
  /// and existing goldens are bit-identical with the knob off.
  bool model_incast = false;

  /// Total one-way fabric latency ("Network" in the paper's terminology).
  TimePs network_latency() const {
    return TimePs::from_ns(wire_latency_ns +
                           switch_latency_ns * static_cast<double>(num_switches));
  }
  TimePs serialize(std::uint32_t payload_bytes) const {
    return TimePs::from_ns(serialize_ns_per_byte *
                           static_cast<double>(payload_bytes + header_bytes));
  }
};

/// Counters for the reliable-transport layer: the wire-side half lives in
/// the fabric (packet fates), the protocol-side half in each NIC's RC
/// machine (ACK/NAK/retry activity). Merged per testbed/cluster and
/// exported as `net.*` profiler counters, mirroring `fault.*`.
struct TransportStats {
  // Wire side (fabric). Conservation at quiescence:
  //   sent + duplicated == delivered + dropped + corrupted.
  std::uint64_t packets_sent = 0;
  std::uint64_t data_packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_corrupted = 0;
  std::uint64_t packets_duplicated = 0;
  std::uint64_t packets_reordered = 0;
  // Protocol side (NIC RC transport).
  std::uint64_t retransmits = 0;          // data packets re-sent (go-back-N)
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;        // raw ACK packets processed
  std::uint64_t naks_sent = 0;
  std::uint64_t naks_received = 0;
  std::uint64_t rnr_naks_sent = 0;
  std::uint64_t rnr_naks_received = 0;
  std::uint64_t duplicates_discarded = 0; // stale-PSN data discarded + re-ACKed
  std::uint64_t retry_timer_firings = 0;
  std::uint64_t qp_errors = 0;            // retry/RNR budget exhausted
  std::uint64_t qp_recoveries = 0;        // reconnect handshakes completed
  std::uint64_t flushed_wqes = 0;         // WQEs retired as error CQEs

  void merge(const TransportStats& o);
};

/// Switched fabric between `node_count` NICs (the paper's testbed has
/// two; multi-rank workloads use more). Serialization and in-order
/// delivery are maintained per sender (reorder faults excepted).
class Fabric {
 public:
  using Handler = std::function<void(const NetPacket&)>;

  Fabric(sim::Simulator& sim, NetParams params, int node_count = 2,
         fault::WireInjector* wire = nullptr);

  void attach(int node, Handler h);
  const NetParams& params() const { return params_; }
  int node_count() const { return static_cast<int>(handlers_.size()); }

  /// Whether wire faults are live. The NIC arms its transport retry
  /// timers only on a lossy fabric: on a reliable wire the NAK/RNR paths
  /// already recover everything and the timer events would perturb the
  /// error-free goldens.
  bool lossy() const { return wire_ != nullptr && wire_->enabled(); }

  /// Transmits a packet from `pkt.src_node` to `pkt.dst_node`.
  void send(NetPacket pkt);

  std::uint64_t packets_delivered() const { return stats_.packets_delivered; }
  const TransportStats& stats() const { return stats_; }

 private:
  void deliver(std::size_t dst, TimePs arrive, NetPacket pkt, bool corrupt);

  sim::Simulator& sim_;
  NetParams params_;
  fault::WireInjector* wire_ = nullptr;
  std::vector<Handler> handlers_;
  // Per-sender transmitter state for serialization and ordering.
  std::vector<TimePs> next_free_;
  std::vector<TimePs> last_arrival_;
  // Per-receiver port occupancy (only advanced when model_incast is on).
  std::vector<TimePs> rx_next_free_;
  TransportStats stats_;
};

}  // namespace bb::net
