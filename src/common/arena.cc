#include "src/common/arena.h"

#include <bit>

#include "src/common/logging.h"

namespace camo {

Arena::Arena(std::size_t chunk_bytes) : chunkBytes_(chunk_bytes)
{
    camo_assert(chunk_bytes >= kMaxPooled,
                "arena chunks must hold the largest pooled block");
}

Arena::~Arena() = default;

std::size_t
Arena::bucketOf(std::size_t bytes)
{
    const std::size_t rounded =
        std::bit_ceil(bytes < kMinBucket ? kMinBucket : bytes);
    return rounded;
}

void *
Arena::allocate(std::size_t bytes, std::size_t align)
{
    ++allocCalls_;
    bytesRequested_ += bytes;
    if (bytes > kMaxPooled || align > kMinBucket) {
        ++heapFallbacks_;
        if (align > alignof(std::max_align_t))
            return ::operator new(bytes, std::align_val_t(align));
        return ::operator new(bytes);
    }
    const std::size_t bucket = bucketOf(bytes);
    const std::size_t idx =
        static_cast<std::size_t>(std::bit_width(bucket) -
                                 std::bit_width(kMinBucket));
    if (FreeNode *node = freeLists_[idx]) {
        freeLists_[idx] = node->next;
        ++freeListHits_;
        return node;
    }
    // Bump-allocate from the newest chunk; every bucket is a
    // power-of-two multiple of 16, so a 16-aligned cursor satisfies
    // any pooled alignment.
    if (chunks_.empty() || cursor_ + bucket > chunks_.back().size) {
        Chunk c;
        c.size = chunkBytes_;
        c.data = std::make_unique<unsigned char[]>(c.size);
        chunks_.push_back(std::move(c));
        cursor_ = 0;
    }
    void *p = chunks_.back().data.get() + cursor_;
    cursor_ += bucket;
    return p;
}

void
Arena::deallocate(void *p, std::size_t bytes,
                  std::size_t align) noexcept
{
    ++freeCalls_;
    if (bytes > kMaxPooled || align > kMinBucket) {
        if (align > alignof(std::max_align_t)) {
            ::operator delete(p, std::align_val_t(align));
            return;
        }
        ::operator delete(p);
        return;
    }
    const std::size_t bucket = bucketOf(bytes);
    const std::size_t idx =
        static_cast<std::size_t>(std::bit_width(bucket) -
                                 std::bit_width(kMinBucket));
    auto *node = static_cast<FreeNode *>(p);
    node->next = freeLists_[idx];
    freeLists_[idx] = node;
}

} // namespace camo
