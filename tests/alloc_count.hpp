// A counting global operator new for allocation tests: include this header
// in exactly one translation unit of a test binary, and every heap
// allocation of that binary goes through the counting operators, so a test
// can assert that a warm path never reaches the allocator. All forms are
// replaced, so every block is malloc'd and freed by the same family
// (AddressSanitizer checks that pairing).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace alloc_count {

inline std::atomic<std::uint64_t> g_heap_allocs{0};

inline void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

inline void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, std::max(a, (n + a - 1) / a * a))) {
    return p;
  }
  throw std::bad_alloc();
}

inline std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace alloc_count

void* operator new(std::size_t n) { return alloc_count::counted_alloc(n); }
void* operator new[](std::size_t n) { return alloc_count::counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return alloc_count::counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return alloc_count::counted_alloc(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return alloc_count::counted_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  try {
    return alloc_count::counted_alloc(n, a);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return operator new(n, a, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
