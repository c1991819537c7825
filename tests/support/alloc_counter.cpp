#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// The replacements live in their own translation unit, so callers never
// inline their bodies: a caller then pairs each `operator new` with an
// `operator delete`, instead of with the `free` inside it.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bb::support {

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace bb::support
