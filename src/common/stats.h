/**
 * @file
 * Minimal statistics package: named scalar counters and averages with
 * a registry per component, plus a formatter for end-of-run dumps.
 */

#ifndef CAMO_COMMON_STATS_H
#define CAMO_COMMON_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace camo {

/**
 * Running scalar statistic (count / sum / min / max / mean), with
 * Welford's online algorithm for numerically stable variance.
 */
class Scalar
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
        const double delta = v - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (v - mean_);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? mean_ : 0.0; }
    /** Population variance (0 with fewer than two samples). */
    double variance() const
    {
        return count_ > 1 ? m2_ / static_cast<double>(count_) : 0.0;
    }
    double stddev() const;
    void clear() { *this = Scalar(); }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0; ///< Welford sum of squared deviations
};

/**
 * The name of a counter or scalar: a string literal, checked at
 * compile time.
 *
 * Static-storage contract: the constructor is consteval and reads the
 * character array, so only a string literal (or a constexpr char
 * array) compiles -- a std::string, a runtime `const char *` or a
 * mutable buffer is rejected. The characters therefore live for the
 * whole program and never change, so one pointer always spells one
 * name, and StatGroup can key its lookup cache on the pointer alone.
 * (Two pointers may still spell the same name; they simply resolve to
 * the same map entry through two cache slots.)
 */
class StatName
{
  public:
    template <std::size_t N>
    consteval StatName(const char (&name)[N]) : str_(name)
    {
        if (name[N - 1] != '\0')
            throw "StatName: not NUL-terminated";
    }

    const char *c_str() const { return str_; }

  private:
    const char *str_;
};

/**
 * A registry of named counters and scalars owned by one component.
 * Components expose `stats()` so tests and benches can inspect them.
 *
 * Writes take a StatName and resolve it to its map entry through a
 * small cache keyed by the name's pointer, so the hot path is a hash
 * probe instead of a string build plus a map walk. A key exists in
 * counters()/scalars() exactly when it has been written, and a copy
 * starts with an empty cache of its own.
 */
class StatGroup
{
  public:
    /** Increment a named counter. */
    void
    inc(StatName name, std::uint64_t by = 1)
    {
        std::uint64_t *&slot = counterSlots_.find(name.c_str());
        if (slot == nullptr)
            slot = &counters_[name.c_str()];
        *slot += by;
    }

    /** Sample a named scalar. */
    void
    sample(StatName name, double v)
    {
        Scalar *&slot = scalarSlots_.find(name.c_str());
        if (slot == nullptr)
            slot = &scalars_[name.c_str()];
        slot->sample(v);
    }

    std::uint64_t counter(const std::string &name) const;
    const Scalar &scalar(const std::string &name) const;
    bool hasScalar(const std::string &name) const;

    /** Iteration access (the observability registry serializes us). */
    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Scalar> &scalars() const
    {
        return scalars_;
    }

  private:
    /**
     * Open-addressing map from a StatName's pointer to the map entry it
     * resolved to. std::map nodes never move, so the cached pointers
     * stay valid as long as the group's maps. Copies and moves leave
     * both sides empty: the pointers belong to the source group's
     * maps.
     */
    template <typename T>
    class SlotCache
    {
      public:
        SlotCache() = default;
        SlotCache(const SlotCache &) {}
        SlotCache(SlotCache &&other) noexcept { other.clear(); }
        SlotCache &
        operator=(const SlotCache &)
        {
            clear();
            return *this;
        }
        SlotCache &
        operator=(SlotCache &&other) noexcept
        {
            clear();
            other.clear();
            return *this;
        }

        /** The slot for `key`; its value is nullptr when new. */
        T *&
        find(const char *key)
        {
            if (2 * (used_ + 1) > slots_.size())
                grow();
            const std::size_t mask = slots_.size() - 1;
            std::size_t i = hash(key) & mask;
            while (slots_[i].key != key) {
                if (slots_[i].key == nullptr) {
                    slots_[i].key = key;
                    ++used_;
                    break;
                }
                i = (i + 1) & mask;
            }
            return slots_[i].value;
        }

        void
        clear()
        {
            slots_.clear();
            used_ = 0;
        }

      private:
        struct Slot
        {
            const char *key = nullptr;
            T *value = nullptr;
        };

        static std::size_t
        hash(const char *key)
        {
            const auto h = static_cast<std::uint64_t>(
                               reinterpret_cast<std::uintptr_t>(key)) *
                           0x9E3779B97F4A7C15ull;
            return static_cast<std::size_t>(h >> 32);
        }

        void
        grow()
        {
            std::vector<Slot> old(
                std::max<std::size_t>(16, 2 * slots_.size()));
            old.swap(slots_);
            used_ = 0;
            for (const Slot &s : old) {
                if (s.key != nullptr)
                    find(s.key) = s.value;
            }
        }

        std::vector<Slot> slots_; ///< size 0 or a power of two
        std::size_t used_ = 0;
    };

    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, Scalar> scalars_;
    SlotCache<std::uint64_t> counterSlots_;
    SlotCache<Scalar> scalarSlots_;
};

/** Geometric mean of a vector of positive values (0 if empty). */
double geomean(const std::vector<double> &values);

} // namespace camo

#endif // CAMO_COMMON_STATS_H
