/**
 * @file
 * Heap occupancy probe for memory-footprint tests and benches.
 */

#ifndef SAP_BASE_HEAP_HH
#define SAP_BASE_HEAP_HH

#include <cstdint>

// ASan and TSan replace the allocator, so glibc's counts would not
// describe this program's allocations.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SAP_ALLOCATOR_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SAP_ALLOCATOR_REPLACED 1
#endif
#endif

#if !defined(SAP_ALLOCATOR_REPLACED) && defined(__GLIBC__) &&        \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#define SAP_HAVE_MALLINFO2 1
#include <malloc.h>
#endif

namespace sap {

/**
 * Bytes the process's allocator holds for live allocations: glibc's
 * mallinfo2 in-use arena bytes plus mmap'd chunks. Returns −1
 * without glibc 2.33+ and under ASan or TSan.
 */
inline std::int64_t
heapBytesInUse()
{
#if defined(SAP_HAVE_MALLINFO2)
    const struct mallinfo2 m = mallinfo2();
    return static_cast<std::int64_t>(m.uordblks + m.hblkhd);
#else
    return -1;
#endif
}

} // namespace sap

#endif // SAP_BASE_HEAP_HH
