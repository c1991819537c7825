// The gap merge (docs/SIM_ENGINE.md, "Gap merge") against the
// pass-by-pass path it replaces.
//
// Each trial parks 1-16 synthetic waiters with one common pass period at
// random boundaries (same-phase ties and equal boundaries included), with
// random deadlines, waiters whose CQ is already ready, and queued events
// that make waiters ready or reschedule themselves. The trial runs twice:
// once with every waiter advertising its period (the simulator may merge
// gaps) and once with period 0 (every pass runs one by one). Both runs
// must log the same events and ending passes at the same (time, logical
// event count), and end with the same busy time and pass count per
// waiter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace bb::sim {
namespace {

// (what, who, time in ps, events_processed) for every queued event and
// every pass that ends a wait.
using LogEntry = std::tuple<int, int, std::int64_t, std::uint64_t>;
enum What { kEvent = 0, kEnd = 1 };

class Probe final : public Waiter {
 public:
  Probe(Simulator& sim, std::vector<LogEntry>& log, int id, TimePs d,
        bool merge, TimePs deadline, bool ready)
      : sim_(sim), log_(log), id_(id), d_(d), ready_(ready) {
    period_ = merge ? d : TimePs::zero();
    deadline_ = deadline;
  }

  void pass() override {
    if (sim_.now() > deadline_ || ready_) {
      log_.emplace_back(kEnd, id_, sim_.now().ps(), sim_.events_processed());
      return;
    }
    ++passes_;
    busy_ += d_;
    sim_.park(*this, sim_.now() + d_);
  }
  bool ready() const override { return ready_; }
  void skip(std::uint64_t n) override {
    passes_ += n;
    skipped_ += n;
    busy_ += d_ * static_cast<std::int64_t>(n);
  }

  void make_ready() { ready_ = true; }
  std::uint64_t passes() const { return passes_; }
  std::uint64_t skipped() const { return skipped_; }
  TimePs busy() const { return busy_; }

 private:
  Simulator& sim_;
  std::vector<LogEntry>& log_;
  int id_;
  TimePs d_;
  bool ready_;
  std::uint64_t passes_ = 0;
  std::uint64_t skipped_ = 0;
  TimePs busy_ = TimePs::zero();
};

struct Spec {
  TimePs period;
  TimePs boundary;
  TimePs deadline;
  bool ready;
};

struct Wake {
  TimePs at;
  int probe;       // made ready, or -1 for an event that only logs
  TimePs repeat;   // reschedules itself this much later (zero: once)
  int repeats;
};

struct Scenario {
  std::vector<Spec> probes;
  std::vector<int> park_order;
  std::vector<Wake> wakes;
  std::vector<TimePs> pauses;  // run_until bounds before the final run()
};

struct Outcome {
  std::vector<LogEntry> log;
  // At each pause, then at the end: (now, events_processed).
  std::vector<std::pair<std::int64_t, std::uint64_t>> marks;
  std::vector<std::uint64_t> passes;
  std::vector<std::int64_t> busy;
  std::vector<std::uint64_t> skipped;
  std::uint64_t dispatched = 0;
};

void schedule(Simulator& sim, std::vector<LogEntry>& log,
              std::vector<std::unique_ptr<Probe>>& probes, int id, Wake w) {
  sim.call_at(w.at, [&sim, &log, &probes, id, w] {
    log.emplace_back(kEvent, id, sim.now().ps(), sim.events_processed());
    if (w.probe >= 0) probes[static_cast<std::size_t>(w.probe)]->make_ready();
    if (w.repeats > 0) {
      Wake next = w;
      next.at = sim.now() + w.repeat;
      --next.repeats;
      schedule(sim, log, probes, id, next);
    }
  });
}

Outcome run(const Scenario& s, bool merge) {
  Simulator sim(1);
  Outcome out;
  std::vector<std::unique_ptr<Probe>> probes;
  for (std::size_t i = 0; i < s.probes.size(); ++i) {
    const Spec& p = s.probes[i];
    probes.push_back(std::make_unique<Probe>(sim, out.log, static_cast<int>(i),
                                             p.period, merge, p.deadline,
                                             p.ready));
  }
  // Parks and queued events interleave in seq order as drawn.
  for (int i : s.park_order) {
    sim.park(*probes[static_cast<std::size_t>(i)],
             s.probes[static_cast<std::size_t>(i)].boundary);
    const std::size_t w = static_cast<std::size_t>(i);
    if (w < s.wakes.size()) schedule(sim, out.log, probes, i, s.wakes[w]);
  }
  for (std::size_t w = s.probes.size(); w < s.wakes.size(); ++w) {
    schedule(sim, out.log, probes, static_cast<int>(w), s.wakes[w]);
  }
  for (TimePs t : s.pauses) {
    sim.run_until(t);
    out.marks.emplace_back(sim.now().ps(), sim.events_processed());
  }
  sim.run();
  out.marks.emplace_back(sim.now().ps(), sim.events_processed());
  for (const auto& p : probes) {
    out.passes.push_back(p->passes());
    out.busy.push_back(p->busy().ps());
    out.skipped.push_back(p->skipped());
  }
  out.dispatched = sim.events_dispatched();
  return out;
}

Scenario draw(std::mt19937_64& rng, bool mixed_periods) {
  auto uni = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  Scenario s;
  const std::int64_t d = uni(1, 40);
  const int k = static_cast<int>(uni(1, 16));
  // Boundaries within a few periods of each other, so same-phase ties
  // and equal boundaries are common.
  const std::int64_t spread = uni(1, 4 * d);
  for (int i = 0; i < k; ++i) {
    Spec p;
    p.period = TimePs(mixed_periods && i == k - 1 ? d + 1 : d);
    p.boundary = TimePs(10 + uni(0, spread));
    p.ready = uni(0, 9) == 0;
    p.deadline = uni(0, 2) == 0
                     ? TimePs::max()
                     : p.boundary + TimePs(uni(-d, 60 * d));
    s.probes.push_back(p);
    s.park_order.push_back(i);
  }
  std::shuffle(s.park_order.begin(), s.park_order.end(), rng);
  const std::int64_t horizon = 10 + spread + 60 * d;
  if (mixed_periods) {
    // The odd one out stays parked until every other probe has ended.
    s.probes.back().deadline = TimePs::max();
    s.probes.back().ready = false;
  }
  // One wake per probe: a probe with no deadline must be woken, the
  // others are at random; then a few events that only log.
  for (int i = 0; i < k; ++i) {
    Wake w;
    w.at = TimePs(mixed_periods && i == k - 1 ? 2 * horizon
                                               : uni(1, horizon));
    w.probe = s.probes[static_cast<std::size_t>(i)].deadline == TimePs::max() ||
                      uni(0, 1) == 0
                  ? i
                  : -1;
    w.repeat = TimePs(uni(1, 3 * d));
    w.repeats = static_cast<int>(uni(0, 3));
    s.wakes.push_back(w);
  }
  const int extra = static_cast<int>(uni(0, 3));
  for (int i = 0; i < extra; ++i) {
    s.wakes.push_back(Wake{TimePs(uni(1, horizon)), -1,
                           TimePs(uni(1, 2 * d)),
                           static_cast<int>(uni(0, 5))});
  }
  const int pauses = static_cast<int>(uni(0, 2));
  std::int64_t t = 0;
  for (int i = 0; i < pauses; ++i) {
    t += uni(1, horizon / 2);
    s.pauses.push_back(TimePs(t));
  }
  return s;
}

TEST(GapMerge, MatchesPassByPass) {
  std::mt19937_64 rng(20261020);
  std::uint64_t merged = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Scenario s = draw(rng, /*mixed_periods=*/false);
    const Outcome a = run(s, /*merge=*/true);
    const Outcome b = run(s, /*merge=*/false);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(a.log, b.log);
    EXPECT_EQ(a.marks, b.marks);
    EXPECT_EQ(a.passes, b.passes);
    EXPECT_EQ(a.busy, b.busy);
    EXPECT_EQ(b.skipped, std::vector<std::uint64_t>(s.probes.size(), 0));
    // Parked passes are never queue pops, merged or not.
    EXPECT_EQ(a.dispatched, b.dispatched);
    for (std::uint64_t n : a.skipped) merged += n;
  }
  // The merge engaged, on a good share of the passes.
  EXPECT_GT(merged, 10000u);
}

TEST(GapMerge, MixedPeriodsRunPassByPass) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Scenario s = draw(rng, /*mixed_periods=*/true);
    if (s.probes.size() < 2) continue;
    Outcome a = run(s, /*merge=*/true);
    const Outcome b = run(s, /*merge=*/false);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(a.log, b.log);
    EXPECT_EQ(a.passes, b.passes);
    // Only the odd one out, once it is parked alone, may merge.
    a.skipped.pop_back();
    EXPECT_EQ(a.skipped, std::vector<std::uint64_t>(s.probes.size() - 1, 0));
  }
}

// A gap that would cross the event limit runs pass by pass, so the limit
// throws at the same logical event either way.
TEST(GapMerge, EventLimitThrowsAtTheSamePass) {
  for (bool merge : {true, false}) {
    Simulator sim(1);
    std::vector<LogEntry> log;
    Probe a(sim, log, 0, TimePs(10), merge, TimePs::max(), false);
    Probe b(sim, log, 1, TimePs(10), merge, TimePs::max(), false);
    sim.park(a, TimePs(5));
    sim.park(b, TimePs(5));
    sim.call_at(TimePs(100000), [&a, &b] {
      a.make_ready();
      b.make_ready();
    });
    sim.set_event_limit(5000);
    EXPECT_THROW(sim.run(), EventLimitError);
    EXPECT_EQ(sim.events_processed(), 5001u) << "merge " << merge;
    EXPECT_EQ(a.passes() + b.passes(), 5000u) << "merge " << merge;
  }
}

}  // namespace
}  // namespace bb::sim
