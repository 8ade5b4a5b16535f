/**
 * @file
 * Memoization cache in front of ErrorModel::pageProfile.
 *
 * pageProfile() is pure: a hash-stream seed, two log-normal draws and
 * a normal draw (Box-Muller, several transcendental calls), one
 * log1p for the population surfaces, and the bisected default retry
 * walk (usually two pow calls). The SSD layer needs a profile once
 * per read transaction; an open-addressing cache keyed by the packed
 * (chip, block, page) coordinates returns the stored one when a page
 * is read again at the same operating point.
 *
 * What that saves depends on re-read locality, and trace workloads
 * have little: perfbench measured hit ratios of 0.037 on
 * replay-paper and 0.045 on raid5-rmw-cached, so there nearly every
 * get() is a probe plus a full pageProfile(). The cache never
 * changes a result; ssd::Config::profileCacheSlots = 0 disables it.
 *
 * Correctness does not depend on invalidation: every entry stores
 * the OperatingPoint it was computed at, and a lookup whose op
 * differs (block erased and reprogrammed, retention age advanced,
 * temperature changed) recomputes and replaces the entry. Explicit
 * invalidateBlock() exists as hygiene so erased blocks do not pin
 * dead entries, and clear() handles wholesale operating-point
 * changes.
 */

#ifndef SSDRR_NAND_PAGE_PROFILE_CACHE_HH
#define SSDRR_NAND_PAGE_PROFILE_CACHE_HH

#include <cstdint>

#include "nand/error_model.hh"
#include "nand/types.hh"
#include "sim/zeroed_array.hh"

namespace ssdrr::nand {

class PageProfileCache
{
  public:
    /**
     * @param model profile source (must outlive the cache)
     * @param capacity slot count; rounded up to a power of two.
     *        0 disables caching (every get() recomputes).
     */
    explicit PageProfileCache(const ErrorModel &model,
                              std::size_t capacity = kDefaultCapacity);

    static constexpr std::size_t kDefaultCapacity = 1 << 14;
    /** Linear-probe window before an entry is evicted. */
    static constexpr std::size_t kProbes = 4;

    /**
     * Profile of page (@p chip, @p block, @p page) at @p op;
     * bit-identical to model().pageProfile(...). The reference is
     * valid until the next get() (callers copy into their Txn).
     */
    const PageErrorProfile &get(std::uint64_t chip, std::uint64_t block,
                                std::uint64_t page,
                                const OperatingPoint &op);

    /** Drop every cached page of (@p chip, @p block) (erase path). */
    void invalidateBlock(std::uint64_t chip, std::uint64_t block);

    /** Drop everything (wholesale operating-point change). */
    void clear();

    const ErrorModel &model() const { return model_; }
    std::size_t capacity() const { return entries_.size(); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t invalidations() const { return invalidations_; }

  private:
    /**
     * Slot entry. `tag` is the packed key + 1 so that 0 means
     * "empty": the table is a calloc-backed ZeroedArray, making a
     * multi-MiB cache cost nothing to construct (it used to be a
     * value-initializing vector sweep, a visible slice of every
     * scenario's setup).
     */
    struct Entry {
        static constexpr std::uint64_t kEmptyTag = 0;
        std::uint64_t tag;
        OperatingPoint op;
        PageErrorProfile prof;
    };

    static std::uint64_t packKey(std::uint64_t chip, std::uint64_t block,
                                 std::uint64_t page);
    static bool sameOp(const OperatingPoint &a, const OperatingPoint &b);

    const ErrorModel &model_;
    sim::ZeroedArray<Entry> entries_;
    std::uint64_t mask_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t invalidations_ = 0;
    /** Scratch for the disabled-cache path. */
    PageErrorProfile scratch_;
};

} // namespace ssdrr::nand

#endif // SSDRR_NAND_PAGE_PROFILE_CACHE_HH
