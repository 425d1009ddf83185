#pragma once

// Global allocation counters: every operator new in the binary that
// includes this header bumps them, so a measured region's deltas are its
// exact heap-allocation count and requested bytes. The header defines the
// replacement operators, so include it from one source file per test
// binary.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

inline std::atomic<size_t> g_allocs{0};
inline std::atomic<size_t> g_bytes{0};

__attribute__((noinline)) void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) { return ::operator new(n); }
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// Nothrow forms too (libstdc++ temporary buffers use them): with every
// variant funneled through malloc/free, ASan sees matched pairs.
__attribute__((noinline)) void* operator new(std::size_t n,
                                             const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
__attribute__((noinline)) void* operator new[](
    std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
__attribute__((noinline)) void operator delete(
    void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](
    void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
// Over-aligned forms too (Matrix storage allocates through them), on
// posix_memalign so they pair with free like the rest.
__attribute__((noinline)) void* operator new(
    std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t align =
      std::max(static_cast<std::size_t>(a), sizeof(void*));
  return posix_memalign(&p, align, n ? n : 1) == 0 ? p : nullptr;
}
__attribute__((noinline)) void* operator new(std::size_t n,
                                             std::align_val_t a) {
  if (void* p = ::operator new(n, a, std::nothrow)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n,
                                               std::align_val_t a) {
  return ::operator new(n, a);
}
__attribute__((noinline)) void* operator new[](
    std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return ::operator new(n, a, std::nothrow);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p, std::size_t,
                                                 std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(
    void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](
    void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
