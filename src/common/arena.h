/**
 * @file
 * Bump/pool allocator for the simulator's hot request path.
 *
 * Inside a run, the per-request containers (MSHR maps, shaper queues,
 * controller transaction queues, instruction windows) churn through
 * millions of small fixed-size node allocations. An Arena serves
 * those from bump-allocated chunks with per-size-class free lists, so
 * freed nodes are reused from warm pages instead of round-tripping
 * each one through the global heap.
 *
 * Lifetime rules (DESIGN.md §16):
 *  - An Arena is single-threaded: each System owns one, and its
 *    components use it on the thread that runs that System. Chunks
 *    are released when the arena is destroyed, after every container
 *    built from it.
 *  - A default-constructed ArenaAllocator (null arena) falls back to
 *    the global heap, so components stay usable standalone in tests.
 *
 * Allocation behaviour is invisible to the simulation: containers are
 * bit-exact regardless of which arena (or none) backs them. The
 * counters exported through the stats registry depend only on the
 * container operation sequence, so they are deterministic too.
 */

#ifndef CAMO_COMMON_ARENA_H
#define CAMO_COMMON_ARENA_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <vector>

namespace camo {

/** Chunked bump allocator with size-class free lists. */
class Arena
{
  public:
    /** Largest request served from chunks; bigger ones go straight to
     *  operator new (rare: container rehashes/large deque maps). */
    static constexpr std::size_t kMaxPooled = 4096;
    static constexpr std::size_t kMinBucket = 16;
    static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

    explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);
    ~Arena();

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Allocate `bytes` aligned to `align` (align must be <= 16 for
     *  pooled sizes; larger alignments fall back to the heap). */
    void *allocate(std::size_t bytes, std::size_t align);

    /** Return a block obtained from allocate() with the same size and
     *  alignment. */
    void deallocate(void *p, std::size_t bytes,
                    std::size_t align) noexcept;

    // ----- counters (exported via the stats registry) --------------
    std::uint64_t allocCalls() const { return allocCalls_; }
    std::uint64_t freeCalls() const { return freeCalls_; }
    std::uint64_t freeListHits() const { return freeListHits_; }
    std::uint64_t bytesRequested() const { return bytesRequested_; }
    std::uint64_t heapFallbacks() const { return heapFallbacks_; }
    std::size_t chunkCount() const { return chunks_.size(); }
    std::uint64_t
    bytesReserved() const
    {
        std::uint64_t total = 0;
        for (const Chunk &c : chunks_)
            total += c.size;
        return total;
    }

  private:
    struct Chunk
    {
        std::unique_ptr<unsigned char[]> data;
        std::size_t size = 0;
    };
    struct FreeNode
    {
        FreeNode *next;
    };

    static std::size_t bucketOf(std::size_t bytes);

    std::size_t chunkBytes_;
    std::vector<Chunk> chunks_;
    std::size_t cursor_ = 0; ///< offset into chunks_.back()
    /** Free lists indexed by log2(bucket) - log2(kMinBucket). */
    static constexpr std::size_t kNumBuckets = 9; // 16..4096
    FreeNode *freeLists_[kNumBuckets] = {};

    std::uint64_t allocCalls_ = 0;
    std::uint64_t freeCalls_ = 0;
    std::uint64_t freeListHits_ = 0;
    std::uint64_t bytesRequested_ = 0;
    std::uint64_t heapFallbacks_ = 0;
};

/**
 * STL allocator over an Arena. Null arena (the default) degrades to
 * the global heap, so arena-typed containers behave identically when
 * a component is constructed without one.
 */
template <typename T>
class ArenaAllocator
{
  public:
    using value_type = T;
    using propagate_on_container_copy_assignment = std::true_type;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;
    using is_always_equal = std::false_type;

    ArenaAllocator() noexcept = default;
    explicit ArenaAllocator(Arena *arena) noexcept : arena_(arena) {}
    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &other) noexcept
        : arena_(other.arena())
    {
    }

    T *
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (arena_ != nullptr) {
            return static_cast<T *>(
                arena_->allocate(bytes, alignof(T)));
        }
        return static_cast<T *>(::operator new(bytes));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        if (arena_ != nullptr) {
            arena_->deallocate(p, n * sizeof(T), alignof(T));
            return;
        }
        ::operator delete(p);
    }

    Arena *arena() const noexcept { return arena_; }

    template <typename U>
    bool
    operator==(const ArenaAllocator<U> &other) const noexcept
    {
        return arena_ == other.arena();
    }

  private:
    Arena *arena_ = nullptr;
};

/** Container aliases for the hot request/response structures. */
template <typename T>
using ArenaDeque = std::deque<T, ArenaAllocator<T>>;
template <typename K, typename V, typename Cmp = std::less<K>>
using ArenaMap =
    std::map<K, V, Cmp, ArenaAllocator<std::pair<const K, V>>>;
template <typename K, typename Cmp = std::less<K>>
using ArenaSet = std::set<K, Cmp, ArenaAllocator<K>>;

} // namespace camo

#endif // CAMO_COMMON_ARENA_H
