#include "fault/fault.hpp"

#include <algorithm>

#include "common/table.hpp"

namespace bb::fault {

void FaultStats::merge(const FaultStats& o) {
  tlps_corrupted += o.tlps_corrupted;
  tlps_dropped += o.tlps_dropped;
  acks_dropped += o.acks_dropped;
  updatefc_dropped += o.updatefc_dropped;
  naks_sent += o.naks_sent;
  replays += o.replays;
  replay_timeouts += o.replay_timeouts;
  duplicates_dropped += o.duplicates_dropped;
  fc_reemissions += o.fc_reemissions;
  poisoned_tlps += o.poisoned_tlps;
  poisoned_delivered += o.poisoned_delivered;
  error_cqes += o.error_cqes;
  read_retries += o.read_retries;
}

std::string FaultStats::render(const std::string& title) const {
  TextTable t({title, "count"});
  auto row = [&](const char* name, std::uint64_t v) {
    t.add_row({name, std::to_string(v)});
  };
  row("TLPs corrupted", tlps_corrupted);
  row("TLPs dropped", tlps_dropped);
  row("Ack/Nak DLLPs dropped", acks_dropped);
  row("UpdateFC DLLPs dropped", updatefc_dropped);
  t.add_rule();
  row("Naks sent", naks_sent);
  row("TLP replays", replays);
  row("Replay-timer expiries", replay_timeouts);
  row("Duplicate TLPs discarded", duplicates_dropped);
  row("UpdateFC re-emissions", fc_reemissions);
  t.add_rule();
  row("TLPs forwarded poisoned", poisoned_tlps);
  row("Poisoned writes delivered", poisoned_delivered);
  row("Error CQEs", error_cqes);
  row("NIC DMA-read retries", read_retries);
  return t.render();
}

FaultInjector::FaultInjector(FaultConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)),
      rng_(SplitMix64(seed ^ 0xFA017ED5EEDull).next()),
      enabled_(cfg_.link_enabled()),
      pending_(cfg_.scheduled) {}

bool FaultInjector::has_scheduled(OneShot::Kind kind, LinkDir dir,
                                  std::uint64_t seq) const {
  for (const OneShot& s : pending_) {
    if (s.kind == kind && s.dir == dir && s.seq == seq) return true;
  }
  return false;
}

bool FaultInjector::take_scheduled(OneShot::Kind kind, LinkDir dir,
                                   std::uint64_t seq) {
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [&](const OneShot& s) {
                           return s.kind == kind && s.dir == dir &&
                                  s.seq == seq;
                         });
  if (it == pending_.end()) return false;
  pending_.erase(it);
  return true;
}

FaultInjector::TlpFate FaultInjector::tlp_fate(LinkDir dir, std::uint64_t seq,
                                               int attempt) {
  if (!enabled_) return TlpFate::kDeliver;
  // kKillTlp persists across attempts: the sender can never get this TLP
  // through and must exhaust its replay budget.
  if (has_scheduled(OneShot::Kind::kKillTlp, dir, seq)) {
    ++stats_.tlps_corrupted;
    return TlpFate::kCorrupt;
  }
  if (attempt == 0) {
    if (take_scheduled(OneShot::Kind::kDropTlp, dir, seq)) {
      ++stats_.tlps_dropped;
      return TlpFate::kDrop;
    }
    if (take_scheduled(OneShot::Kind::kCorruptTlp, dir, seq)) {
      ++stats_.tlps_corrupted;
      return TlpFate::kCorrupt;
    }
  }
  // BER-style faults apply to every attempt; the poisoned-forwarding path
  // bounds the number of attempts, so recovery always converges.
  if (cfg_.tlp_drop_prob > 0.0 && rng_.bernoulli(cfg_.tlp_drop_prob)) {
    ++stats_.tlps_dropped;
    return TlpFate::kDrop;
  }
  if (cfg_.tlp_corrupt_prob > 0.0 && rng_.bernoulli(cfg_.tlp_corrupt_prob)) {
    ++stats_.tlps_corrupted;
    return TlpFate::kCorrupt;
  }
  return TlpFate::kDeliver;
}

bool FaultInjector::drop_ack(LinkDir dir) {
  if (!enabled_) return false;
  const std::uint64_t nth = ++acks_seen_[static_cast<int>(dir)];
  if (take_scheduled(OneShot::Kind::kDropAck, dir, nth) ||
      (cfg_.ack_drop_prob > 0.0 && rng_.bernoulli(cfg_.ack_drop_prob))) {
    ++stats_.acks_dropped;
    return true;
  }
  return false;
}

WireInjector::WireInjector(WireFaultConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)),
      rng_(SplitMix64(seed ^ 0x51B3FA017ull).next()),
      enabled_(cfg_.enabled()),
      pending_(cfg_.scheduled) {}

bool WireInjector::has_scheduled(WireOneShot::Kind kind, int src_node,
                                 std::uint64_t psn) const {
  for (const WireOneShot& s : pending_) {
    if (s.kind == kind && (s.src_node < 0 || s.src_node == src_node) &&
        (s.psn == 0 || s.psn == psn)) {
      return true;
    }
  }
  return false;
}

bool WireInjector::take_scheduled(WireOneShot::Kind kind, int src_node,
                                  std::uint64_t psn) {
  auto it = std::find_if(
      pending_.begin(), pending_.end(), [&](const WireOneShot& s) {
        return s.kind == kind && (s.src_node < 0 || s.src_node == src_node) &&
               (s.psn == 0 || s.psn == psn);
      });
  if (it == pending_.end()) return false;
  pending_.erase(it);
  return true;
}

WireInjector::Fate WireInjector::packet_fate(int src_node, bool is_data,
                                             std::uint64_t psn) {
  if (!enabled_) return Fate::kDeliver;
  if (is_data) {
    // kKillData persists across attempts: the sender can never get this
    // PSN through and must exhaust its transport retry budget.
    if (has_scheduled(WireOneShot::Kind::kKillData, src_node, psn)) {
      return Fate::kDrop;
    }
    if (take_scheduled(WireOneShot::Kind::kDropData, src_node, psn)) {
      return Fate::kDrop;
    }
    if (take_scheduled(WireOneShot::Kind::kDuplicateData, src_node, psn)) {
      return Fate::kDuplicate;
    }
    if (take_scheduled(WireOneShot::Kind::kReorderData, src_node, psn)) {
      return Fate::kReorder;
    }
  } else {
    const std::uint64_t nth = ++ctrl_seen_[src_node];
    if (take_scheduled(WireOneShot::Kind::kDropAck, src_node, nth)) {
      return Fate::kDrop;
    }
  }
  // BER-style faults. Retry budgets at the NIC bound the attempt count,
  // so recovery always converges (or diagnosably errors the QP).
  if (cfg_.drop_prob > 0.0 && rng_.bernoulli(cfg_.drop_prob)) {
    return Fate::kDrop;
  }
  if (cfg_.corrupt_prob > 0.0 && rng_.bernoulli(cfg_.corrupt_prob)) {
    return Fate::kCorrupt;
  }
  if (is_data) {
    if (cfg_.duplicate_prob > 0.0 && rng_.bernoulli(cfg_.duplicate_prob)) {
      return Fate::kDuplicate;
    }
    if (cfg_.reorder_prob > 0.0 && rng_.bernoulli(cfg_.reorder_prob)) {
      return Fate::kReorder;
    }
  }
  return Fate::kDeliver;
}

bool FaultInjector::drop_updatefc(LinkDir dir) {
  if (!enabled_) return false;
  const std::uint64_t nth = ++fcs_seen_[static_cast<int>(dir)];
  if (take_scheduled(OneShot::Kind::kDropUpdateFC, dir, nth) ||
      (cfg_.updatefc_drop_prob > 0.0 &&
       rng_.bernoulli(cfg_.updatefc_drop_prob))) {
    ++stats_.updatefc_dropped;
    return true;
  }
  return false;
}

}  // namespace bb::fault
