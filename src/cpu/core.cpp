#include "cpu/core.hpp"

#include "common/assert.hpp"

namespace bb::cpu {

Core::Core(sim::Simulator& simulator, CpuCostModel model, std::string name)
    : sim_(simulator),
      model_(model),
      name_(std::move(name)),
      rng_(simulator.rng().fork()) {}

void Core::consume(TimePs d) {
  BB_ASSERT_MSG(d >= TimePs::zero(), "CPU work cannot be negative");
#ifndef NDEBUG
  // The parked-waiter invariant: while a waiter on this core is parked,
  // only its own passes touch the core's clock and RNG (every spec draw
  // lands here), so each pass sees the state its boundary event would.
  BB_ASSERT_MSG(!parked_, "core charged while a waiter on it is parked");
#endif
  pending_ += d;
  busy_ += d;
}

TimePs Core::consume(const CostSpec& spec) {
  const TimePs d = speed_scaled(spec.sample(rng_));
  consume(d);
  return d;
}

sim::Task<void> Core::flush() {
  if (pending_ > TimePs::zero()) {
    const TimePs d = pending_;
    pending_ = TimePs::zero();
    co_await sim_.delay(d);
  }
}

TimePs Core::virtual_now() const { return sim_.now() + pending_; }

}  // namespace bb::cpu
