#pragma once
// Counting global `operator new`/`delete` for zero-allocation checks.
//
// Linking alloc_counter.cpp into a binary replaces the global allocation
// functions for the whole program: every `operator new` is counted, then
// served by malloc. Link it only into binaries that check allocation
// counts (test_sim_engine, test_credit_gate, test_llp_parked,
// test_put_alloc, test_trace_capture, bench_engine_perf), so the hooks
// cannot perturb anything else.

#include <cstdint>

namespace bb::support {

/// Global `operator new` calls made so far in this process.
std::uint64_t heap_allocs();

}  // namespace bb::support
