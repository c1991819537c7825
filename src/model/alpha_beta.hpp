#pragma once
// bb::model -- analytical alpha-beta/LogGP-style cost models for the
// pt2pt stack and the bb::coll collective schedules.
//
// The pt2pt model decomposes one message the way §4-§6 of the paper do:
// sender CPU (o_s: MPICH + UCP + LLP_post with its PIO chunking),
// transit (L: PCIe TLP, NIC processing, fabric, receive-side DMA commit),
// and receiver CPU (o_r: LLP_prog + the UCP/MPICH callback chain), each
// term read symbolically from a SystemConfig -- so every what-if overlay
// (integrated NIC, Gen-Z switch, TSO CPU, ...) moves the model and the
// simulator together. The UCP protocol regimes give the model its
// piecewise shape: eager-inline, eager with DMA payload fetch, and
// rendezvous (RTS/CTS/put/FIN).
//
// CollModel composes those per-message terms along each collective
// algorithm's critical path, replicating the exact per-step wire byte
// counts of the bb::coll schedules (ceil chunking, 8-byte minimum slots,
// Bruck's min(k, n-k) blocks). Benches print model vs simulated side by
// side; the acceptance band is +-10% over the OSU size sweep.

#include <cstdint>

#include "coll/coll.hpp"
#include "scenario/config.hpp"

namespace bb::model {

/// Piecewise one-way pt2pt timing decomposition.
class PtPtModel {
 public:
  /// Protocol regimes switch at `cfg.ucp.rndv_threshold`, the one every
  /// scenario::MpiStack on `cfg` uses.
  explicit PtPtModel(const scenario::SystemConfig& cfg) : cfg_(cfg) {}

  /// Sender CPU until MPI_Isend returns (alpha_s of the alpha-beta view).
  double osend_ns(std::uint32_t m) const;
  /// Last CPU store to payload visible in receiver memory (L + m*beta).
  double transit_ns(std::uint32_t m) const;
  /// Receiver CPU from visibility until MPI_Wait returns.
  double orecv_ns() const;
  /// Mean polling-loop quantization: a completion becomes visible mid
  /// progress pass and is noticed on the next one.
  double poll_gap_ns() const;
  /// Per-blocking-wait fixed CPU (charged once per wait/waitall episode).
  double wait_fixed_ns() const;
  /// Full one-way message time as an e2e latency bench would see it.
  double msg_ns(std::uint32_t m) const;

  const scenario::SystemConfig& config() const { return cfg_; }

  /// LLP_post CPU time for an m-byte payload on this config (PIO chunk
  /// arithmetic included).
  double llp_post_ns(std::uint32_t m) const;

 private:
  /// 64-byte PIO chunks for an m-byte inline payload (descriptor control
  /// segment included).
  std::uint32_t pio_chunks(std::uint32_t m) const;
  bool inlined(std::uint32_t m) const;
  /// Transit of an eager message (inline or DMA-fetch, by size).
  double eager_transit_ns(std::uint32_t m) const;

  scenario::SystemConfig cfg_;
};

/// Analytical time for each bb::coll schedule on n ranks.
class CollModel {
 public:
  explicit CollModel(const scenario::SystemConfig& cfg)
      : p_(cfg), t_(cfg.coll) {}

  const PtPtModel& ptpt() const { return p_; }

  double barrier_ns(int nranks, coll::Algo a = coll::Algo::kAuto) const;
  double bcast_ns(int nranks, std::uint32_t bytes,
                  coll::Algo a = coll::Algo::kAuto) const;
  double allgather_ns(int nranks, std::uint32_t bytes_per_rank,
                      coll::Algo a = coll::Algo::kAuto) const;
  double allreduce_ns(int nranks, std::uint32_t bytes,
                      coll::Algo a = coll::Algo::kAuto) const;

 private:
  /// One synchronized schedule step whose critical path is a single
  /// m-byte message plus the step's blocking-wait bookkeeping.
  double step_ns(std::uint32_t m) const;

  PtPtModel p_;
  coll::CollTuning t_;
};

}  // namespace bb::model
