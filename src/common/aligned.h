// Cache-line / vector-register aligned storage for hot-path arrays.
//
// The SIMD scoring kernel (profile/score_kernel_simd.h) sweeps contiguous
// 64-bit block arrays with 256-bit loads; default std::vector storage is
// only 16-byte aligned, which splits those loads across cache lines. An
// AlignedVector places its buffer on a 64-byte boundary — one cache line —
// without changing the container API.
#ifndef P3Q_COMMON_ALIGNED_H_
#define P3Q_COMMON_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

namespace p3q {

/// Minimal std::allocator replacement that over-aligns every allocation.
template <typename T, std::size_t kAlignment = 64>
class AlignedAllocator {
 public:
  static_assert((kAlignment & (kAlignment - 1)) == 0,
                "alignment must be a power of two");
  static_assert(kAlignment >= alignof(T),
                "alignment must not weaken the type's natural alignment");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, kAlignment>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kAlignment});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, kAlignment>;
  };

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// A std::vector whose buffer starts on a 64-byte boundary. Interoperates
/// with plain vectors element-wise; only the allocator type differs.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace p3q

#endif  // P3Q_COMMON_ALIGNED_H_
