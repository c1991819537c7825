#include "prof/profiler.hpp"

#include "common/assert.hpp"

namespace bb::prof {

Profiler::Region Profiler::open(Point p) {
  Region r;
  r.active = true;
  r.point = p;
  r.t0 = core_.virtual_now();
  // One overhead sample per region, half charged at each edge; the raw
  // span t1 - t0 then contains exactly one sampled overhead.
  const TimePs overhead = core_.costs().timer_read.sample(core_.rng());
  const TimePs half = overhead / 2;
  r.deferred_overhead = overhead - half;
  core_.consume(half);
  return r;
}

void Profiler::end(Region& r) {
  if (!r.active) return;
  r.active = false;
  core_.consume(r.deferred_overhead);
  const TimePs raw = core_.virtual_now() - r.t0;
  // §3: "we report software measurements after removing this overhead."
  const double corrected = raw.to_ns() - overhead_mean_ns();
  at(r.point).add_ns(corrected);
}

const Samples& Profiler::samples(Point p) const {
  BB_ASSERT_MSG(has(p), "no samples for region");
  return at(p);
}

std::string Profiler::report() const {
  TextTable t({"Region", "Count", "Mean (ns)", "SD", "Min", "Max"});
  for (std::size_t i = 0; i < kPointCount; ++i) {
    if (samples_[i].empty()) continue;
    const Summary s = samples_[i].summarize();
    t.add_row({kPointNames[i], std::to_string(s.count),
               TextTable::num(s.mean), TextTable::num(s.stddev),
               TextTable::num(s.min), TextTable::num(s.max)});
  }
  return t.render();
}

}  // namespace bb::prof
