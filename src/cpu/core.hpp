#pragma once
// A single CPU core on the simulated timeline.
//
// Software layers (LLP/HLP/benchmark loops) run as one coroutine per core.
// Most of their work is pure time consumption; only at interaction points
// (an MMIO write to the NIC, a poll of a CQ in host memory) does the core
// need to synchronize with the rest of the simulated world. `consume()`
// therefore accrues cost into a pending accumulator synchronously, and
// `flush()` -- a coroutine -- converts the accumulated cost into simulated
// delay before any interaction. `virtual_now()` is the core-local clock
// (simulator time plus pending work), which is what the emulated
// cntvct_el0 timer reads.

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "cpu/cost.hpp"
#include "cpu/cost_model.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace bb::cpu {

class Core {
 public:
  Core(sim::Simulator& simulator, CpuCostModel model, std::string name = "core");

  sim::Simulator& simulator() { return sim_; }
  const CpuCostModel& costs() const { return model_; }
  CpuCostModel& costs() { return model_; }
  const std::string& name() const { return name_; }
  Rng& rng() { return rng_; }

  /// Accrues a fixed duration of CPU work.
  void consume(TimePs d);
  /// Samples `spec`, applies the speed factor, and accrues the result;
  /// returns the accrued duration.
  TimePs consume(const CostSpec& spec);

  /// Scales sampled costs. Models the gap between profiled means
  /// (instrumented, cold-path) and hot-loop execution (warm icache and
  /// branch predictors) that makes analyzer-observed loop times fall a few
  /// percent below the sum of profiled component means (§4.2).
  void set_speed_factor(double f) { speed_factor_ = f; }
  double speed_factor() const { return speed_factor_; }

  /// Converts all pending work into simulated delay. Must be awaited before
  /// interacting with any other simulation entity.
  sim::Task<void> flush();

  /// flush() for a parked waiter (llp::Worker::idle): parks `w` on the
  /// simulator until the pending work has elapsed -- the time flush()
  /// would resume at, with the same single sequence number -- and returns
  /// true, or returns false without parking when no work is pending.
  /// Until the waiter's next pass calls unpark(), nothing else may charge
  /// this core (debug-checked in consume()).
  bool park(sim::Waiter& w) {
    if (pending_ == TimePs::zero()) return false;
    const TimePs d = pending_;
    pending_ = TimePs::zero();
    sim_.park(w, sim_.now() + d);
    parked_ = true;
    return true;
  }
  /// Marks the parked waiter's pass as running.
  void unpark() { parked_ = false; }
  /// Books `d` of work that passes of the parked waiter ran in one merged
  /// step (sim::Waiter::skip): busy time as if each pass had consumed its
  /// costs; the core stays parked with nothing pending.
  void charge_parked(TimePs d) { busy_ += d; }
  /// What consume(spec) accrues when `spec` draws nothing from the Rng
  /// (no jitter, no hiccup tail); nullopt when it does.
  std::optional<TimePs> fixed_cost(const CostSpec& spec) const {
    if (spec.draws()) return std::nullopt;
    return speed_scaled(spec.mean());
  }

  /// Core-local time: simulator time plus un-flushed pending work.
  TimePs virtual_now() const;

  /// Total CPU time this core has consumed (for utilisation accounting).
  TimePs busy_time() const { return busy_; }

 private:
  TimePs speed_scaled(TimePs d) const {
    return speed_factor_ != 1.0 ? d.scaled(speed_factor_) : d;
  }

  sim::Simulator& sim_;
  CpuCostModel model_;
  std::string name_;
  Rng rng_;
  TimePs pending_ = TimePs::zero();
  TimePs busy_ = TimePs::zero();
  double speed_factor_ = 1.0;
  // Read only by the debug check in consume(), but kept in every build
  // type so Debug and Release translation units agree on the layout;
  // declared last.
  bool parked_ = false;
};

}  // namespace bb::cpu
