#pragma once
// bb::coll -- MPI-style collectives as coroutine schedules over the
// simulated pt2pt stack (MPICH/CH4 over the UCP model of §5).
//
// Each primitive ships two algorithms spanning the classic latency /
// bandwidth trade-off, selected MPICH/UCX-style from message size and
// rank count (CollTuning, part of scenario::SystemConfig):
//
//   Barrier    dissemination (log rounds)   | two-pass ring token
//   Bcast      binomial tree (MPICH)        | pipelined chain
//   Allgather  Bruck (log rounds)           | ring (n-1 steps)
//   Allreduce  recursive doubling (MPICH,   | ring (reduce-scatter +
//              non-power-of-two fold)       |       ring allgather)
//
// Payload convention: data-bearing collectives move vectors of doubles;
// the wire size of a message carrying k elements is max(8, 8*k) bytes
// (every protocol message occupies at least one 8-byte slot, matching
// the pt2pt layer's control-message size). The analytical cost model in
// bb::model replicates these byte counts step for step.

#include <cstdint>
#include <vector>

#include "coll/communicator.hpp"

namespace bb::coll {

enum class Algo {
  kAuto,  ///< pick from CollTuning (message size + rank count)
  // Barrier
  kDissemination,
  kRingToken,
  // Bcast
  kBinomialTree,
  kChain,
  // Allgather
  kBruck,
  kRingAllgather,
  // Allreduce
  kRecursiveDoubling,
  kRingAllreduce,
};

const char* algo_name(Algo a);

enum class ReduceOp { kSum, kMax };

/// Wire size of a message carrying `bytes` of payload (>= one 8B slot).
inline std::uint32_t wire_bytes(std::uint64_t bytes) {
  return bytes < 8 ? 8u : static_cast<std::uint32_t>(bytes);
}

/// The concrete algorithm `Algo::kAuto` resolves to, given the tuning
/// thresholds, rank count and (for data-bearing collectives) the total
/// payload in bytes. Exposed so benches and the cost model agree with
/// the schedules on what actually runs.
Algo resolve_barrier(const CollTuning& t, int nranks, Algo a = Algo::kAuto);
Algo resolve_bcast(const CollTuning& t, int nranks, std::uint32_t bytes,
                   Algo a = Algo::kAuto);
Algo resolve_allgather(const CollTuning& t, int nranks,
                       std::uint32_t bytes_per_rank, Algo a = Algo::kAuto);
Algo resolve_allreduce(const CollTuning& t, int nranks, std::uint32_t bytes,
                       Algo a = Algo::kAuto);

// Every collective returns the first non-OK status among its waits
// (kTimedOut when a watchdog fired), or kOk. A failed wait does not cut
// the schedule short: the remaining steps run, so simulated time is the
// same as if the caller had not looked.

/// MPI_Barrier.
sim::Task<common::Status> barrier(Communicator& c, Algo a = Algo::kAuto);

/// MPI_Bcast: on the root, `data` holds the payload (bytes/8 elements);
/// elsewhere it is overwritten with the root's payload.
sim::Task<common::Status> bcast(Communicator& c, int root,
                                std::uint32_t bytes, std::vector<double>& data,
                                Algo a = Algo::kAuto);

/// MPI_Allgather: every rank contributes `mine` (bytes_per_rank/8
/// elements); `out` ends up with one entry per rank, `out[r]` = rank r's
/// contribution (including our own).
sim::Task<common::Status> allgather(Communicator& c,
                                    std::uint32_t bytes_per_rank,
                                    const std::vector<double>& mine,
                                    std::vector<std::vector<double>>& out,
                                    Algo a = Algo::kAuto);

/// MPI_Allreduce: elementwise `op` across all ranks' `inout` vectors
/// (bytes/8 elements each); every rank ends with the reduced vector.
sim::Task<common::Status> allreduce(Communicator& c, std::uint32_t bytes,
                                    std::vector<double>& inout, ReduceOp op,
                                    Algo a = Algo::kAuto);

}  // namespace bb::coll
