#include "reference.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "trace.hpp"

namespace perfbench {

namespace {

// A miniature discrete-event loop, shaped like the simulator's hot path:
// a binary heap of timestamped events, an indirect call per event and a
// few KiB of state, all cache-resident.
struct Event {
  std::uint64_t t;
  std::uint32_t id;
};

using Handler = std::uint64_t (*)(std::uint64_t);
constexpr std::array<Handler, 4> kHandlers = {
    [](std::uint64_t x) -> std::uint64_t { return x * 0x9E3779B97F4A7C15u + 1; },
    [](std::uint64_t x) -> std::uint64_t { return (x ^ (x >> 13)) + 7; },
    [](std::uint64_t x) -> std::uint64_t { return x + (x << 3) + 11; },
    [](std::uint64_t x) -> std::uint64_t { return (x >> 1) ^ 0x5555; },
};

constexpr int kEvents = 11000;
constexpr std::uint32_t kQueued = 512;
constexpr std::size_t kState = 4096;

}  // namespace

double reference_loop_ns() {
  const auto later = [](const Event& a, const Event& b) { return a.t > b.t; };
  std::vector<std::uint64_t> state(kState, 1);
  std::vector<Event> heap;
  heap.reserve(kQueued);
  std::uint64_t x = 88172645463325252u;
  for (std::uint32_t i = 0; i < kQueued; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push_back({x % 1000, i});
    std::push_heap(heap.begin(), heap.end(), later);
  }

  const std::int64_t start = host_now_ns();
  std::uint64_t h = 0;
  for (int i = 0; i < kEvents; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Event e = heap.back();
    heap.pop_back();
    std::uint64_t& s = state[(e.id * 7 + h) % kState];
    s = kHandlers[(s ^ e.id) % kHandlers.size()](s);
    h += s;
    heap.push_back({e.t + ((s & 8) != 0 ? (s & 255) + 1 : 3), e.id});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const std::int64_t end = host_now_ns();
  // Keep the loop's result observable so it cannot be optimized away.
  static volatile std::uint64_t sink;
  sink = h;
  return static_cast<double>(end - start);
}

}  // namespace perfbench
