#pragma once
// UCS-style software profiling (§3).
//
// The paper instruments code with UCX's UCS profiling infrastructure,
// which reads cntvct_el0 (preceded by an isb) around each region. The
// infrastructure itself costs time -- 49.69 ns mean, 1.48 ns sd on the
// paper's machine -- and reported numbers have that mean subtracted.
//
// This profiler reproduces the methodology *inside* the simulation: each
// measured region perturbs the core's timeline by a sampled overhead
// (half charged inside the region at begin, half at end, so the raw span
// contains one full overhead sample) and the recorded duration subtracts
// the configured mean. The residual sampling noise is therefore part of
// our measured component times, exactly as on real hardware.

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "cpu/core.hpp"

namespace bb::prof {

/// Every instrumented region in the stack. A Profiler measures only the
/// points selected on it (§3: one component at a time), so choosing what
/// to wrap is one typed decision in one place.
enum class Point : std::uint8_t {
  // llp::Endpoint::post (§4.1, Fig. 4): the whole post, or its substeps.
  kLlpPost,
  kMdSetup,
  kBarrierMd,
  kBarrierDbc,
  kPioCopy,
  kDoorbellWrite,
  kPostOther,
  kBusyPost,
  // llp::Worker::progress: each CQE dequeue, or the whole pass.
  kLlpProg,
  kUctWorkerProgress,
  // hlp::UcpWorker (§5).
  kUcpWorkerProgress,
  kUcpCallback,
  // hlp::MpiComm (§5).
  kUcpTagSendNb,
  kMpiIsend,
  kMpiWait,
  kMpichCallback,
  kMpichAfterProgress,
  kCount
};

inline constexpr std::size_t kPointCount =
    static_cast<std::size_t>(Point::kCount);

/// The region name each point is reported under. Indexed by Point; only
/// report() and the printed tables use it.
inline constexpr const char* kPointNames[] = {
    "LLP_post",
    "MD setup",
    "Barrier for MD",
    "Barrier for DBC",
    "PIO copy",
    "DoorBell write",
    "Other",
    "Busy post",
    "LLP_prog",
    "uct_worker_progress",
    "ucp_worker_progress",
    "UCP callback",
    "ucp_tag_send_nb",
    "MPI_Isend",
    "MPI_Wait",
    "MPICH callback",
    "MPICH after progress",
};
static_assert(std::size(kPointNames) == kPointCount,
              "every Point needs a region name");

constexpr const char* name(Point p) {
  return kPointNames[static_cast<std::size_t>(p)];
}

/// A set of instrumentation points.
class PointSet {
 public:
  constexpr PointSet() = default;
  constexpr PointSet(std::initializer_list<Point> points) {
    for (Point p : points) bits_ |= bit(p);
  }
  constexpr bool contains(Point p) const { return (bits_ & bit(p)) != 0; }

 private:
  static constexpr std::uint32_t bit(Point p) {
    return std::uint32_t{1} << static_cast<unsigned>(p);
  }
  std::uint32_t bits_ = 0;
};
static_assert(kPointCount <= 32, "PointSet holds one bit per Point");

/// The per-substep run of §4.1 (Fig. 4): every LLP_post substep, plus
/// busy posts, which never reach the substeps.
inline constexpr PointSet kPostSubsteps = {
    Point::kMdSetup, Point::kBarrierMd,     Point::kBarrierDbc,
    Point::kPioCopy, Point::kDoorbellWrite, Point::kPostOther,
    Point::kBusyPost};

class Profiler {
 public:
  explicit Profiler(cpu::Core& core) : core_(core) {}

  /// Selects the points to measure (replacing any earlier selection);
  /// nothing is selected by default. Unselected regions cost nothing and
  /// record nothing -- the paper measures one component at a time "to
  /// minimize any effects of artificial slowdowns" (§3).
  void select(PointSet points) { selected_ = points; }

  /// Globally enables/disables measurement of the selected points;
  /// benches disable the profiler for analyzer-observed runs.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// An open measurement; obtained from begin(), closed by end().
  struct Region {
    bool active = false;
    Point point = Point::kCount;
    TimePs t0;
    TimePs deferred_overhead;  // second half, charged at end()
  };

  /// Whether begin(p) would open a measured region.
  bool active(Point p) const { return enabled_ && selected_.contains(p); }

  /// Opens a region at `p`; inactive (no time consumed, no overhead
  /// sampled) unless the profiler is enabled and `p` is selected.
  Region begin(Point p) {
    if (!active(p)) return Region{};
    return open(p);
  }
  /// Closes the region and records the compensated duration.
  void end(Region& r);

  /// Whether `p` has recorded at least one sample.
  bool has(Point p) const { return !at(p).empty(); }
  const Samples& samples(Point p) const;
  double mean_ns(Point p) const { return samples(p).summarize().mean; }
  void clear() { samples_ = {}; }

  /// The mean that gets subtracted from every region (Table 1:
  /// "Measurement update").
  double overhead_mean_ns() const {
    return core_.costs().timer_read.mean_ns;
  }

  /// Table of the recorded regions, in Point order.
  std::string report() const;

 private:
  Region open(Point p);
  Samples& at(Point p) { return samples_[static_cast<std::size_t>(p)]; }
  const Samples& at(Point p) const {
    return samples_[static_cast<std::size_t>(p)];
  }

  cpu::Core& core_;
  bool enabled_ = true;
  PointSet selected_;
  std::array<Samples, kPointCount> samples_;
};

}  // namespace bb::prof
