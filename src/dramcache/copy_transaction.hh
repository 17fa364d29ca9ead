/**
 * @file
 * The transactional page-copy state of one copy-engine slot.
 *
 * A page copy is a transaction over 64 sub-blocks tracked by three bit
 * vectors — read-issued (R), in-buffer (B), partial-write (W) — plus a
 * local-overwrite vector, an in-flight read count, and a generation
 * number that orphans stale read arrivals. Every CopyEngine slot
 * (copy_engine.hh) is one: the NOMAD back-end's PCSHRs (and, through
 * them, TDC's and Banshee's copies) and the tiering migration slots.
 * So are the line fills and writeback jobs of the tags-in-DRAM
 * controller (line_cache_scheme.hh), whose lines may be shorter than
 * 64 blocks; it tests completion against its own all-blocks mask, not
 * copyComplete(). It has two recovery operations:
 *
 *  - rewindLost(): abort-and-refetch after a forward-progress timeout.
 *    In-flight reads are presumed lost (dropped DRAM responses, stuck
 *    copies under --fault-spec), so the generation bump orphans them
 *    and R rewinds to B — exactly the sub-blocks that actually landed
 *    — for re-issue. Buffered and written data are preserved.
 *
 *  - restart(): full abort-and-refetch after the source page mutated
 *    under the copy (a demand write to a page with an in-flight
 *    tiering promotion). Everything copied so far is stale, so all
 *    four vectors rewind to empty and the copy refetches from scratch.
 *
 * Retry accounting (copyRetries and friends) stays with the owner of
 * the engine: each registers its stat conditionally against its own
 * hardening context.
 */

#ifndef NOMAD_DRAMCACHE_COPY_TRANSACTION_HH
#define NOMAD_DRAMCACHE_COPY_TRANSACTION_HH

#include <cstdint>

#include "sim/simulation.hh"

namespace nomad
{

/** All 64 sub-blocks of a page, as a full bit vector. */
constexpr std::uint64_t AllSubBlocks = ~0ULL;

/** Sub-block @p i is set in vector @p vec. */
inline bool
subBlockSet(std::uint64_t vec, std::uint32_t i)
{
    return (vec >> i) & 1ULL;
}

/** Set sub-block @p i in vector @p vec. */
inline void
setSubBlock(std::uint64_t &vec, std::uint32_t i)
{
    vec |= 1ULL << i;
}

/** Sub-block copy state of one in-flight page-copy transaction. */
struct CopyTransaction
{
    std::uint64_t rVec = 0;     ///< Read-issued vector.
    std::uint64_t bVec = 0;     ///< In-buffer vector.
    std::uint64_t wVec = 0;     ///< Partial-write vector.
    std::uint64_t localVec = 0; ///< Locally overwritten sub-blocks.
    std::uint32_t readsInFlight = 0;
    /** Bumped on rewind/restart/release; a read arrival carrying an
     *  older generation is dropped as stale by the owning engine. */
    std::uint64_t generation = 0;
    Tick lastProgress = 0; ///< Last accepted read/write (timeout base).
    bool stuck = false;    ///< Injected: responses are swallowed.

    /** Reset the vectors for a fresh copy command in this slot. */
    void
    arm(Tick now)
    {
        rVec = 0;
        bVec = 0;
        wVec = 0;
        localVec = 0;
        readsInFlight = 0;
        lastProgress = now;
        stuck = false;
    }

    /** All sub-blocks written to the destination: the copy is done. */
    bool copyComplete() const { return wVec == AllSubBlocks; }

    /**
     * Abort-and-refetch after lost reads (copy timeout): orphan every
     * in-flight read via the generation bump and rewind R to the
     * sub-blocks that actually landed, so the engine re-issues the
     * missing source reads. Buffered/written data stay valid.
     */
    void
    rewindLost(Tick now)
    {
        ++generation;
        readsInFlight = 0;
        rVec = bVec;
        stuck = false;
        lastProgress = now;
    }

    /**
     * Abort-and-refetch after the source page mutated under the copy
     * (write-triggered migration abort): everything staged so far is
     * stale, so rewind all vectors and refetch from scratch.
     */
    void
    restart(Tick now)
    {
        ++generation;
        readsInFlight = 0;
        rVec = 0;
        bVec = 0;
        wVec = 0;
        localVec = 0;
        stuck = false;
        lastProgress = now;
    }

    /** Invalidate on slot release so late arrivals stay orphaned. They
     *  never touch the slot, so the in-flight count is zeroed here. */
    void retire() { ++generation; readsInFlight = 0; stuck = false; }
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_COPY_TRANSACTION_HH
