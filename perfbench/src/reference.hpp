#pragma once
// The host-speed reference loop.
//
// The benchmark runs on shared machines whose speed drifts by tens of
// percent over tens of seconds. Every trial is bracketed by this fixed
// loop, and the end-to-end host-time metrics are scaled by
// kReferenceNs / (its measured time), which cancels drift that slows the
// loop and the simulator alike. The loop belongs to the benchmark, not
// to the program, so no change to the simulator can move it.

namespace perfbench {

/// The nominal duration of one reference loop: host times are reported
/// as if every trial had run on a machine where the loop takes exactly
/// this long (about its typical time on the 4-core development host).
inline constexpr double kReferenceNs = 1.0e6;

/// Runs the reference loop once; returns its wall-clock duration in ns.
double reference_loop_ns();

}  // namespace perfbench
