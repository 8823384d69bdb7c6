// Global operator new replacement that counts heap allocations while
// g_count_allocs is armed (traced runs only). The array and nothrow forms
// default to these, so every plain allocation in the process is counted.
#include <cstdlib>
#include <new>

#include "probe.hpp"

namespace perfbench {
std::atomic<bool> g_count_allocs{false};
std::atomic<u64> g_allocs{0};
}  // namespace perfbench

void* operator new(std::size_t size) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed))
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }
