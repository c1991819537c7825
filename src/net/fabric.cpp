#include "net/fabric.hpp"

#include "common/assert.hpp"

namespace bb::net {

void TransportStats::merge(const TransportStats& o) {
  packets_sent += o.packets_sent;
  data_packets_sent += o.data_packets_sent;
  packets_delivered += o.packets_delivered;
  packets_dropped += o.packets_dropped;
  packets_corrupted += o.packets_corrupted;
  packets_duplicated += o.packets_duplicated;
  packets_reordered += o.packets_reordered;
  retransmits += o.retransmits;
  acks_sent += o.acks_sent;
  acks_received += o.acks_received;
  naks_sent += o.naks_sent;
  naks_received += o.naks_received;
  rnr_naks_sent += o.rnr_naks_sent;
  rnr_naks_received += o.rnr_naks_received;
  duplicates_discarded += o.duplicates_discarded;
  retry_timer_firings += o.retry_timer_firings;
  qp_errors += o.qp_errors;
  qp_recoveries += o.qp_recoveries;
  flushed_wqes += o.flushed_wqes;
}

Fabric::Fabric(sim::Simulator& sim, NetParams params, int node_count,
               fault::WireInjector* wire)
    : sim_(sim), params_(params), wire_(wire) {
  BB_ASSERT(node_count >= 2);
  handlers_.resize(static_cast<std::size_t>(node_count));
  next_free_.resize(static_cast<std::size_t>(node_count));
  last_arrival_.resize(static_cast<std::size_t>(node_count));
  rx_next_free_.resize(static_cast<std::size_t>(node_count));
}

void Fabric::attach(int node, Handler h) {
  BB_ASSERT(node >= 0 && node < node_count());
  handlers_[static_cast<std::size_t>(node)] = std::move(h);
}

void Fabric::deliver(std::size_t dst, TimePs arrive, NetPacket pkt,
                     bool corrupt) {
  sim_.call_at(arrive, [this, dst, corrupt, pkt = std::move(pkt)] {
    if (corrupt) {
      // The packet occupied the wire but fails the receiver's ICRC check
      // and is discarded without notification (IB semantics); the sender
      // recovers via a later PSN-gap NAK or its retry timer.
      ++stats_.packets_corrupted;
      return;
    }
    ++stats_.packets_delivered;
    BB_ASSERT_MSG(handlers_[dst], "no NIC attached at destination node");
    handlers_[dst](pkt);
  });
}

void Fabric::send(NetPacket pkt) {
  BB_ASSERT(pkt.src_node != pkt.dst_node);
  BB_ASSERT(pkt.src_node >= 0 && pkt.src_node < node_count());
  BB_ASSERT(pkt.dst_node >= 0 && pkt.dst_node < node_count());
  const auto src = static_cast<std::size_t>(pkt.src_node);
  ++stats_.packets_sent;
  if (pkt.is_data()) ++stats_.data_packets_sent;

  const TimePs depart = std::max(sim_.now(), next_free_[src]);
  next_free_[src] = depart + params_.serialize(pkt.payload_bytes);
  TimePs arrive = depart + params_.network_latency();

  auto fate = fault::WireInjector::Fate::kDeliver;
  if (lossy()) {
    fate = wire_->packet_fate(pkt.src_node, pkt.is_data(), pkt.psn);
  }
  if (fate == fault::WireInjector::Fate::kDrop) {
    // The serialization slot was consumed but nothing arrives, and the
    // in-order gate is NOT advanced: a dropped packet cannot delay its
    // successors' arrival.
    ++stats_.packets_dropped;
    return;
  }
  if (fate == fault::WireInjector::Fate::kReorder) {
    // Exempt from the in-order gate and delayed, so successors overtake.
    ++stats_.packets_reordered;
    arrive = arrive + TimePs::from_ns(wire_->config().reorder_delay_ns);
  } else {
    arrive = std::max(arrive, last_arrival_[src]);  // in-order delivery
    last_arrival_[src] = arrive;
  }

  const auto dst = static_cast<std::size_t>(pkt.dst_node);
  if (params_.model_incast) {
    // Converging flows drain one at a time through the receiver port.
    arrive = std::max(arrive, rx_next_free_[dst]);
    rx_next_free_[dst] = arrive + params_.serialize(pkt.payload_bytes);
  }
  const bool corrupt = fate == fault::WireInjector::Fate::kCorrupt;
  if (fate == fault::WireInjector::Fate::kDuplicate) {
    // The second copy trails the first by one serialization slot and
    // delivers unconditionally (no re-rolled fate), keeping the
    // conservation identity simple: sent + duplicated == delivered +
    // dropped + corrupted.
    ++stats_.packets_duplicated;
    const TimePs dup_arrive = arrive + params_.serialize(pkt.payload_bytes);
    last_arrival_[src] = dup_arrive;
    deliver(dst, dup_arrive, pkt, /*corrupt=*/false);
  }
  deliver(dst, arrive, std::move(pkt), corrupt);
}

}  // namespace bb::net
