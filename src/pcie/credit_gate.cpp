#include "pcie/credit_gate.hpp"

namespace bb::pcie {

CreditGate::CreditGate(sim::Simulator& sim, Link& link, Direction dir,
                       CreditState credits)
    : sim_(sim), link_(link), dir_(dir), credits_(credits) {}

void CreditGate::send(const Tlp& tlp) {
  fifo_.push(tlp);
  if (state_ == State::kIdle) schedule_drain();
}

void CreditGate::replenish(const Dllp& update) {
  credits_.replenish(update);
  if (state_ == State::kBlocked) schedule_drain();
}

void CreditGate::schedule_drain() {
  state_ = State::kPending;
  sim_.call_in(TimePs::zero(), [this] { drain(); });
}

void CreditGate::drain() {
  while (!fifo_.empty()) {
    const Tlp& tlp = fifo_.front();
    if (!credits_.can_send(tlp)) {
      ++stalls_;
      state_ = State::kBlocked;
      return;
    }
    credits_.consume(tlp);
    ++issued_;
    if (dir_ == Direction::kDownstream) {
      link_.send_downstream(tlp);
    } else {
      link_.send_upstream(tlp);
    }
    fifo_.pop();
  }
  state_ = State::kIdle;
}

}  // namespace bb::pcie
