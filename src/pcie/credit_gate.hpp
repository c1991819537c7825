#pragma once
// The credit gate in front of a PCIe transmitter (§2, §4.2): "the RC can
// generate transactions only if it has credits". The Root Complex gates
// its downstream MWr TLPs through one and the NIC its upstream TLPs.
//
// `send()` and `replenish()` only queue work. One callback at the current
// time (at most one pending) then issues the head TLPs in FIFO order
// while credits allow; a head short of credits blocks every TLP behind it
// and counts one stall each time it is found short. The gate never sends
// in its caller's event: the drain runs after every event already
// scheduled for this picosecond; sending at once would reorder
// same-picosecond events and change simulated results.

#include <cstdint>

#include "common/ring.hpp"
#include "pcie/credit.hpp"
#include "pcie/link.hpp"
#include "sim/simulator.hpp"

namespace bb::pcie {

class CreditGate {
 public:
  /// Gates TLPs that `link` transmits in direction `dir`.
  CreditGate(sim::Simulator& sim, Link& link, Direction dir,
             CreditState credits);
  CreditGate(const CreditGate&) = delete;
  CreditGate& operator=(const CreditGate&) = delete;

  /// Queues `tlp` behind every TLP not yet issued.
  void send(const Tlp& tlp);
  /// Applies an UpdateFC from the receiver; a blocked head is retried.
  void replenish(const Dllp& update);

  const CreditState& credits() const { return credits_; }
  /// TLPs handed to the link so far.
  std::uint64_t issued() const { return issued_; }
  /// Times the head TLP was found short of credits.
  std::uint64_t stalls() const { return stalls_; }

 private:
  enum class State : std::uint8_t {
    kIdle,     // nothing queued, no drain pending
    kPending,  // a drain is scheduled at the current time
    kBlocked,  // the head waits for an UpdateFC
  };

  void schedule_drain();
  void drain();

  sim::Simulator& sim_;
  Link& link_;
  Direction dir_;
  State state_ = State::kIdle;
  CreditState credits_;
  common::Ring<Tlp> fifo_;
  std::uint64_t issued_ = 0;
  std::uint64_t stalls_ = 0;
};

}  // namespace bb::pcie
