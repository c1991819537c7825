#pragma once
// The per-primitive CPU cost model.
//
// Defaults are calibrated to the paper's Table 1 (ThunderX2 @ 2 GHz,
// ConnectX-4, MPICH/CH4 over UCX). Each named spec corresponds to a row of
// Table 1 or to a quantity derived in §5-§6; the derivations are noted
// inline. Changing these values retargets the whole simulator to another
// system -- the models and benches consume them symbolically.

#include <array>

#include "cpu/cost.hpp"

namespace bb::cpu {

struct CpuCostModel {
  // --- LLP_post constituents (§4.1, Table 1, Fig. 4) ---------------------
  /// Writing the control segment of the message descriptor (+ payload
  /// memcpy when inlining).
  CostSpec md_setup = CostSpec::jittered(27.78, 0.15);
  /// `dmb st` ensuring the MD is written before signalling the NIC.
  CostSpec barrier_store_md = CostSpec::jittered(17.33, 0.15);
  /// DoorBell-counter update plus the `dmb st` ordering it before device
  /// writes.
  CostSpec barrier_store_dbc = CostSpec::jittered(21.07, 0.15);
  /// The 64-byte programmed-I/O copy to Device-GRE memory (one chunk per
  /// 64 bytes of descriptor+inline payload).
  CostSpec pio_copy_64b = CostSpec::jittered(94.25, 0.18);
  /// Function-call overhead, branching, etc. within uct_ep_*_short.
  CostSpec llp_post_misc = CostSpec::jittered(14.99, 0.15);

  // --- LLP progress (§4.1) ------------------------------------------------
  /// Dequeuing one CQ entry (load barrier + CQE read + bookkeeping).
  CostSpec llp_prog = CostSpec::jittered(61.63, 0.15);
  /// A progress pass that finds the CQ empty (load barrier + miss).
  CostSpec llp_empty_progress = CostSpec::jittered(18.0, 0.15);
  /// An LLP_post attempt that fails because the TxQ is full.
  CostSpec busy_post = CostSpec::jittered(8.99, 0.15);
  /// The 8-byte atomic DoorBell write (non-PIO descriptor path).
  CostSpec doorbell_write_8b = CostSpec::jittered(15.0, 0.15);

  // --- Measurement infrastructure (§3) ------------------------------------
  /// One profiling timestamp pair: isb + cntvct_el0 read + record. The
  /// profiler subtracts the configured mean, reproducing §3's methodology.
  CostSpec timer_read = CostSpec{49.69, 1.48 / 49.69, 0.0, 0.0};

  // --- Plain memory ops (§7 "PIO" optimization reference point) -----------
  /// 64-byte copy to cacheable Normal memory ("less than a nanosecond").
  CostSpec memcpy_normal_64b = CostSpec::jittered(0.9, 0.10);

  // --- HLP: initiation (§5, Table 1) --------------------------------------
  /// MPICH work inside MPI_Isend above ucp_tag_send_nb.
  CostSpec mpich_isend = CostSpec::jittered(24.37, 0.15);
  /// UCP work inside ucp_tag_send_nb above uct_ep_am_short.
  CostSpec ucp_isend = CostSpec::jittered(2.19, 0.15);

  // --- HLP: receive-side progress (§5-§6, Table 1) -------------------------
  /// Registered MPICH callback for a completed MPI_Irecv.
  CostSpec mpich_rx_callback = CostSpec::jittered(47.99, 0.15);
  /// Registered UCP callback (UCP-only share; the MPICH callback is timed
  /// separately).
  CostSpec ucp_rx_callback = CostSpec::jittered(139.78, 0.15);
  /// MPICH work after a successful ucp_worker_progress before MPI_Wait
  /// returns (measured 36.89 in §6).
  CostSpec mpich_after_progress = CostSpec::jittered(36.89, 0.15);
  /// MPICH blocking-wait fixed work (entry, request inspection, loop
  /// control). Derived: MPI_Wait-in-MPICH 293.29 = this + mpich_rx_callback
  /// 47.99 + mpich_after_progress 36.89  =>  208.41.
  CostSpec mpich_wait_fixed = CostSpec::jittered(208.41, 0.15);
  /// UCP work per ucp_worker_progress pass excluding callbacks. Derived:
  /// MPI_Wait-in-UCP 150.51 = this + ucp_rx_callback 139.78  =>  10.73.
  CostSpec ucp_progress_iter = CostSpec::jittered(10.73, 0.15);

  // --- HLP: send-side progress (§6) ----------------------------------------
  /// Per-operation HLP overhead of progressing sends inside MPI_Waitall
  /// (unsignalled completions amortize the LLP share to <1 ns). Derived:
  /// Post_prog 59.82 minus the amortized LLP_prog (61.63/64 = 0.96).
  CostSpec hlp_tx_prog = CostSpec::jittered(58.86, 0.15);

  // --- Interrupt-driven completion (§2's alternative to polling) ----------
  /// Kernel context switch + interrupt handling on the critical path when
  /// the user requests completion notification instead of polling. §2:
  /// "the polling approach is latency-oriented since there is no context
  /// switch to the kernel in the critical path."
  CostSpec interrupt_wakeup = CostSpec::jittered(2400.0, 0.20);

  // --- Background noise -----------------------------------------------------
  /// Rare per-iteration OS hiccup applied by benchmark loops; produces the
  /// heavy tail in Fig. 7 (max ~35 us against a 282 ns mean).
  CostSpec loop_hiccup = CostSpec{0.0, 0.0, 1.5e-4, 2200.0};
  /// Per-iteration microarchitectural noise of the injection hot loop
  /// (cache/TLB/branch effects): exponential, i.e. strongly right-skewed.
  /// Together with the hot-loop speed factor this reproduces Fig. 7's
  /// shifted-exponential shape -- its mean-median gap of ~16 ns equals
  /// sd x (1 - ln 2) for an exponential component.
  CostSpec loop_exp_noise = CostSpec{0.0, 0.0, 1.0, 58.0};

  /// Every spec above, in declaration order.
  std::array<CostSpec*, 22> specs() {
    return {&md_setup, &barrier_store_md, &barrier_store_dbc, &pio_copy_64b,
            &llp_post_misc, &llp_prog, &llp_empty_progress, &busy_post,
            &doorbell_write_8b, &timer_read, &memcpy_normal_64b, &mpich_isend,
            &ucp_isend, &mpich_rx_callback, &ucp_rx_callback,
            &mpich_after_progress, &mpich_wait_fixed, &ucp_progress_iter,
            &hlp_tx_prog, &interrupt_wakeup, &loop_hiccup, &loop_exp_noise};
  }

  /// Removes all jitter and tails (deterministic timing, used by tests and
  /// by exact model-vs-simulator comparisons).
  void strip_jitter() {
    for (CostSpec* s : specs()) {
      s->cv = 0.0;
      s->tail_prob = 0.0;
    }
  }

  /// The paper's own Table-1 LLP_post total (sum of the five constituent
  /// means); useful for model cross-checks.
  double llp_post_mean_ns() const {
    return md_setup.mean_ns + barrier_store_md.mean_ns +
           barrier_store_dbc.mean_ns + pio_copy_64b.mean_ns +
           llp_post_misc.mean_ns;
  }
};

}  // namespace bb::cpu
