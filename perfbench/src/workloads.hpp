#pragma once
// The benchmark's four closed-loop workloads. Each trial builds a fresh
// scenario from a generated input, runs warm-up, then a fixed number of
// timed ops, drains to quiescence and checks its outputs.
//
// The drivers are the benchmark's own coroutines with the loop shapes of
// benchlib's put_bw, osu_latency and osu_coll; they call llp, hlp and
// coll through their public functions, so every such call is a boundary
// the benchmark counts (always) and times (in traced trials).

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Everything a trial's program sees, generated from the run's seed.
struct TrialInput {
  std::uint64_t sim_seed = 0;   ///< SystemConfig::seed
  std::uint64_t data_seed = 0;  ///< allreduce contributions
};

/// Layer counters, read through the program's public accessors (and the
/// drivers' own call counts) at a point in a trial.
struct Counters {
  // sim
  std::uint64_t events = 0;
  std::int64_t sim_ps = 0;
  // cpu (simulated busy time, all cores)
  std::int64_t cpu_busy_ps = 0;
  // llp: driver-boundary calls
  std::uint64_t post_calls = 0;
  std::uint64_t busy_posts = 0;
  std::uint64_t progress_calls = 0;
  std::uint64_t empty_progress = 0;
  // llp: worker counters
  std::uint64_t cqes_polled = 0;
  std::uint64_t error_completions = 0;
  // hlp: driver-boundary calls
  std::uint64_t isend_calls = 0;
  std::uint64_t wait_calls = 0;
  // coll: communicator counters (all ranks)
  std::uint64_t coll_isends = 0;
  std::uint64_t coll_waits = 0;
  // pcie
  std::uint64_t tlps = 0;
  std::uint64_t analyzer_records = 0;
  std::uint64_t replays = 0;
  // nic
  std::uint64_t cqes_written = 0;
  std::uint64_t dma_reads = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t error_cqes = 0;
  // net
  std::uint64_t packets_sent = 0;
  std::uint64_t data_packets_sent = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t naks_sent = 0;
  std::uint64_t retry_timer_firings = 0;
  // fault
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_recovered = 0;
  std::uint64_t poisoned_tlps = 0;

  /// Field-wise difference (this - o).
  Counters minus(const Counters& o) const;
  /// Field-wise sum.
  void add(const Counters& o);
  /// FNV-1a over every field.
  std::uint64_t hash(std::uint64_t h) const;
};

struct TrialResult {
  double build_s = 0.0;  ///< host: config + scenario + stack constructors
  double setup_s = 0.0;  ///< host: build + warm-up
  double timed_s = 0.0;  ///< host: the timed ops
  /// Reference loop duration (reference.hpp) measured next to the timed
  /// ops, for scaling the host times to the reference speed.
  double reference_ns = 0.0;
  std::uint64_t timed_ops = 0;
  std::uint64_t attempted = 0;  ///< all ops of the trial, warm-up included
  std::uint64_t failed = 0;
  /// Simulated headline over the timed ops: sum and sample count.
  double result_sum_ns = 0.0;
  std::uint64_t result_n = 0;
  /// Timed-phase layer counters (end minus start of the timed ops).
  Counters timed;
  std::uint64_t event_pool_chunks = 0;
  /// Simulated-output digest: per-op simulated times, events processed
  /// and the layer counters at quiescence.
  std::uint64_t digest = 0;
  /// Failed output checks (empty when every check passed).
  std::vector<std::string> check_failures;
};

/// The simulated headline checked against the analytical model (core,
/// model), the way the repo's own bench binary checks that experiment.
struct ModelCheck {
  bool ok;
  std::string detail;
};

struct WorkloadInfo {
  const char* name;
  TrialResult (*run)(const TrialInput& in, Tracer* tracer, int trial_index);
  ModelCheck (*check_model)(double result_ns);
  const char* result_what;
  int nodes;  ///< simulated nodes (one core each)
};

/// Returns nullptr for an unknown name.
const WorkloadInfo* find_workload(const std::string& name);
std::vector<std::string> workload_names();

}  // namespace perfbench
