#pragma once
// Message channels between simulation processes.
//
// `Channel<T>` is an unbounded FIFO: `send()` never blocks (hardware queues
// with finite depth model their own back-pressure explicitly, which is what
// the paper's busy-post semantics require); `co_await ch.receive()` blocks
// the receiving process until an item is available. Receivers are served in
// FIFO order and resumed through the simulator's ready ring at the current
// time, preserving global determinism.
//
// The receive path is allocation- and branch-lean: the awaiter holds the
// delivered item in an engaged union (no `std::optional` discriminant
// shuffling on the hot path), a send to a blocked receiver constructs the
// value directly into the awaiter's slot, and the wake-up goes through
// `Simulator::schedule_now` -- an O(1) ring push.

#include <coroutine>
#include <deque>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/simulator.hpp"

namespace bb::sim {

template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : sim_(&sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T value) {
    if (!waiters_.empty()) {
      Waiter w = waiters_.pop();
      w.awaiter->fill(std::move(value));
      sim_->schedule_now(w.h);
    } else {
      items_.push_back(std::move(value));
    }
  }

  std::size_t pending() const { return items_.size(); }

  class ReceiveAwaiter {
   public:
    explicit ReceiveAwaiter(Channel& ch) : ch_(ch) {}
    ReceiveAwaiter(const ReceiveAwaiter&) = delete;
    ReceiveAwaiter& operator=(const ReceiveAwaiter&) = delete;
    ~ReceiveAwaiter() {
      if (engaged_) value_.~T();
    }

    bool await_ready() {
      if (!ch_.items_.empty()) {
        fill(std::move(ch_.items_.front()));
        ch_.items_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch_.waiters_.push(Waiter{h, this});
    }
    T await_resume() {
      BB_ASSERT_MSG(engaged_, "channel resume without a value");
      return std::move(value_);
    }

    /// Constructs the delivered value in place (sender side).
    void fill(T&& v) {
      ::new (static_cast<void*>(&value_)) T(std::move(v));
      engaged_ = true;
    }

   private:
    Channel& ch_;
    union {
      T value_;  // constructed iff engaged_
    };
    bool engaged_ = false;
  };

  ReceiveAwaiter receive() { return ReceiveAwaiter(*this); }

  /// Non-blocking receive; returns nullopt when empty.
  std::optional<T> try_receive() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    ReceiveAwaiter* awaiter;
  };

  /// Power-of-two circular FIFO of blocked receivers: push/pop are an
  /// index mask and a 16-byte store, cheaper than `std::deque`'s segment
  /// bookkeeping on the ping-pong hot path.
  class WaiterQueue {
   public:
    bool empty() const { return count_ == 0; }
    void push(Waiter w) {
      if (count_ == v_.size()) grow();
      v_[(head_ + count_) & mask_] = w;
      ++count_;
    }
    Waiter pop() noexcept {
      const Waiter w = v_[head_ & mask_];
      head_ = (head_ + 1) & mask_;
      --count_;
      return w;
    }

   private:
    void grow() {
      const std::size_t cap = v_.empty() ? 8 : v_.size() * 2;
      std::vector<Waiter> bigger(cap);
      for (std::size_t i = 0; i < count_; ++i) {
        bigger[i] = v_[(head_ + i) & mask_];
      }
      v_ = std::move(bigger);
      head_ = 0;
      mask_ = cap - 1;
    }

    std::vector<Waiter> v_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t mask_ = 0;
  };

  Simulator* sim_;
  std::deque<T> items_;
  WaiterQueue waiters_;
};

}  // namespace bb::sim
