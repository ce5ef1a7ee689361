// Manual AddressSanitizer poisoning for memory an allocator keeps for
// reuse (recycled coroutine frames, free-listed index nodes): while kept,
// the memory is poisoned, so a use after its owner freed it still reports
// under ASan. Without ASan both calls are no-ops.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define DMV_ASAN_POISONING 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DMV_ASAN_POISONING 1
#endif
#endif
#ifdef DMV_ASAN_POISONING
#include <sanitizer/asan_interface.h>
#endif

namespace dmv::util {

inline void asan_poison([[maybe_unused]] const void* p,
                        [[maybe_unused]] size_t n) noexcept {
#ifdef DMV_ASAN_POISONING
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

inline void asan_unpoison([[maybe_unused]] const void* p,
                          [[maybe_unused]] size_t n) noexcept {
#ifdef DMV_ASAN_POISONING
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

}  // namespace dmv::util
