#pragma once
// Outside-in span recorder for the benchmark's traced run.
//
// Spans are opened and closed by the benchmark's own driver coroutines
// around each call into a layer of the simulator (llp, hlp, coll, cpu),
// never inside the program. Each driver coroutine owns one `Lane`: spans
// on a lane nest strictly, so a span's self time is its duration minus
// the durations of the child spans on the same lane.
//
// Host spans around a `co_await` also cover every simulator event that
// other processes ran before the driver resumed; on workloads with more
// than one simulated process their self times overlap and are upper
// bounds. The exclusive time splits the host timeline instead: each
// interval between two consecutive span events (on any lane) is charged
// to the innermost open span of the lane that emits the second event,
// so exclusive times add up to the traced host time (see
// perfbench/README.md).
//
// Aggregates (count, total, self time, per-call samples) cover every
// traced span. Individual spans are kept in memory up to `kMaxKeptSpans`
// and written at exit as Chrome trace-event JSON.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kDriver, kScenario, kCpu, kLlp, kHlp, kColl };
inline constexpr int kLayerCount = 6;
const char* layer_name(Layer l);

inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Aggregate of every span of one (layer, function) pair.
struct FnStats {
  Layer layer = Layer::kDriver;
  const char* fn = "";
  std::uint64_t calls = 0;
  double host_ns = 0.0;
  double self_ns = 0.0;
  double exclusive_ns = 0.0;
  double sim_ns = 0.0;
  std::vector<float> host_samples_ns;
  std::vector<float> sim_samples_ns;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxKeptSpans = 20000;

  Tracer();

  /// One driver coroutine's span stack. Not copyable: it belongs to
  /// one coroutine for that coroutine's lifetime.
  class Lane {
   public:
    Lane(Tracer& t, const bb::sim::Simulator& sim, int trial, int lane);
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    void begin(Layer layer, const char* fn, std::uint64_t op);
    void end();

   private:
    struct Open {
      std::size_t fn_index;
      std::uint64_t id;
      std::uint64_t parent;  // 0 = root
      std::uint64_t op;
      std::int64_t host_start;
      std::int64_t sim_start_ps;
      double child_ns;
      double exclusive_ns;
    };
    /// Charges the host time since the last span event, on any lane, to
    /// this lane's innermost open span; returns the current host time.
    std::int64_t charge();
    Tracer& t_;
    const bb::sim::Simulator& sim_;
    int trial_;
    int lane_;
    std::vector<Open> stack_;
  };

  /// Drops the host time since the last span event from the exclusive
  /// attribution (the benchmark's own bookkeeping, not the program's).
  void skip_to_now() { last_event_ns_ = host_now_ns(); }

  /// A span timed without a lane (no simulator exists yet, e.g. the
  /// scenario constructors); its simulated times are zero.
  void record_span(Layer layer, const char* fn, int trial,
                   std::int64_t host_start, std::int64_t host_end);

  const std::vector<FnStats>& functions() const { return fns_; }
  std::uint64_t spans() const { return next_id_ - 1; }

  /// Chrome trace-event JSON of the kept spans.
  bool write_chrome_json(const std::string& path) const;
  /// Per-layer and per-function self-time table; `ops` normalizes.
  std::string self_time_table(double ops) const;
  /// Exclusive host ns of one layer, summed over its functions.
  double layer_exclusive_ns(Layer l) const;

 private:
  struct Kept {
    std::size_t fn_index;
    std::uint64_t id, parent, op;
    int trial, lane;
    std::int64_t host_start, host_end;
    std::int64_t sim_start_ps, sim_end_ps;
  };

  std::size_t fn_index(Layer layer, const char* fn);
  void close(std::size_t fn_index, const Kept& span, double self_ns,
             double exclusive_ns);

  std::int64_t origin_ns_;
  std::int64_t last_event_ns_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<FnStats> fns_;
  std::vector<Kept> kept_;
};

/// What a driver holds: a lane when the trial is traced, nothing
/// otherwise. Every call is a single branch when tracing is off.
class Probe {
 public:
  Probe(Tracer* t, const bb::sim::Simulator& sim, int trial, int lane) {
    if (t != nullptr) lane_.emplace(*t, sim, trial, lane);
  }
  void begin(Layer layer, const char* fn, std::uint64_t op) {
    if (lane_) lane_->begin(layer, fn, op);
  }
  void end() {
    if (lane_) lane_->end();
  }

 private:
  std::optional<Tracer::Lane> lane_;
};

}  // namespace perfbench
