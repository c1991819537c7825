#include "pcie/credit_gate.hpp"

#include <utility>

namespace bb::pcie {

CreditGate::CreditGate(sim::Simulator& sim, Link& link, Direction dir,
                       CreditState credits)
    : sim_(sim), link_(link), dir_(dir), credits_(credits) {}

void CreditGate::Fifo::push(const Tlp& t) {
  if (count_ == v_.size()) {
    const std::size_t cap = v_.empty() ? 16 : v_.size() * 2;
    std::vector<Tlp> bigger(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(v_[(head_ + i) & mask_]);
    }
    v_ = std::move(bigger);
    head_ = 0;
    mask_ = cap - 1;
  }
  v_[(head_ + count_) & mask_] = t;
  ++count_;
}

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
