/**
 * @file
 * The page-copy engine shared by NomadBackEnd and MigrationEngine.
 *
 * A CopyEngine streams 4 KB pages sub-block by sub-block between near
 * (on-package) and far (off-package) memory through a table of slots.
 * It owns the slot table, the round-robin pump (read issue in
 * critical-first-then-sequential order, the write drain, completion),
 * the pump-sleep induction behind nextWorkTick()/skipTicks(), the
 * read-arrival path (fault filter, generation check, B-vector update,
 * progress clock), copy-timeout recovery and slot release. It names
 * itself as the sender of every request it offers, so a refusing
 * DRAM queue wakes it with a retry notification (MemPort). What
 * differs between its owners reaches it through the Owner hooks. Each
 * owner stays the clocked component: it registers itself, and its
 * tick(), nextWorkTick() and skipTicks() forward here.
 */

#ifndef NOMAD_DRAMCACHE_COPY_ENGINE_HH
#define NOMAD_DRAMCACHE_COPY_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dramcache/copy_transaction.hh"
#include "mem/request.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace nomad
{

namespace harden
{
class FaultInjector;
} // namespace harden

/** One copy slot: the transaction plus the fields every owner shares. */
struct CopySlot : CopyTransaction
{
    bool valid = false;
    /** Near to far (a writeback or a demotion); else far to near. It
     *  picks the source and destination port, page, space and Category. */
    bool writeback = false;
    PageNum pfn = InvalidPage; ///< Far-side (off-package) page.
    PageNum cfn = InvalidPage; ///< Near-side (on-package) frame.
    bool pri = false;          ///< Read priIdx first (P bit).
    std::uint32_t priIdx = 0;  ///< Critical sub-block (PI field).
    Tick acceptedAt = 0;
    std::uint64_t traceId = 0; ///< Lifecycle span id (0 = untraced).
};

/** The shared slot table and pump (one per owner). */
class CopyEngine : public SimObject, public RetrySender
{
  public:
    /** What differs between owners, called from the pump. */
    class Owner
    {
      public:
        /** Slot @p slot may move data; gates read issue and the
         *  timeout scan. */
        virtual bool canTransfer(int) const { return true; }

        /** A sub-block to read before the sequential order, or -1. */
        virtual int demandedSubBlock(int) const { return -1; }

        /** Sub-block @p idx of slot @p slot landed at @p when. */
        virtual void subBlockArrived(int, std::uint32_t, Tick) {}

        /** Every sub-block of slot @p slot is written: finish the
         *  copy and release() the slot. */
        virtual void copyDone(int slot) = 0;

      protected:
        ~Owner() = default;
    };

    /** @p stale_reads and @p copy_retries are statistics the owner
     *  names and registers. */
    CopyEngine(Simulation &sim, const std::string &name, Owner &owner,
               MemPort &near, MemPort &far, std::uint32_t num_slots,
               std::uint32_t max_reads_in_flight, Tick copy_timeout,
               stats::Scalar &stale_reads, stats::Scalar &copy_retries);

    /** The owner's clocked-component handle, poked on read arrival. */
    void setClockedHandle(Simulation::ClockedHandle h) { wakeIdx_ = h; }
    void poke() { sim_.pokeClocked(wakeIdx_); }

    /** The pump owes a pass: slot state changed outside the pump. */
    void wake() { pumpSleep_ = false; }

    /** A port that refused an offer may now accept: re-run the pump. */
    void
    recvRetry() override
    {
        poke();
        pumpSleep_ = false;
    }

    /** Fault decision engine; null on the default (unhardened) path. */
    harden::FaultInjector *injector() const { return injector_; }

    CopySlot &slot(int i) { return slots_[i]; }
    const CopySlot &slot(int i) const { return slots_[i]; }

    std::uint32_t
    numSlots() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    std::uint32_t activeSlots() const { return activeSlots_; }

    /** Lowest free slot, or -1 when every slot is busy. */
    int findFreeSlot() const;

    /** Arm free slot @p slot for a fresh copy; issues nothing. */
    CopySlot &start(int slot, bool writeback, PageNum pfn, PageNum cfn,
                    bool pri, std::uint32_t pri_idx);

    /** Free slot @p slot, orphaning its in-flight reads. */
    void release(int slot);

    void issueReads(int slot);
    void drainWrites(int slot);
    /** Hand a fully written copy to Owner::copyDone(). */
    void maybeComplete(int slot);

    /** One clock edge: the copy-timeout scan, then one pump pass. */
    void tick();

    /** Drain-time leak audit (throws under --check-invariants). */
    void checkDrained() const;

    /**
     * Skip-ahead hook: sleep with no slot in flight, or while every
     * pump pass is provably a no-op or refused (pumpSleep_). The
     * hardened paths (fault injection, copy-timeout scans) run every
     * cycle by design, so a hardened engine never skips.
     */
    Tick
    nextWorkTick() const
    {
        if (injector_ != nullptr || copyTimeout_ > 0)
            return 0;
        if (activeSlots_ == 0)
            return MaxTick;
        return pumpSleep_ ? MaxTick : Tick(0);
    }

    /**
     * Batch-account elided no-op edges: within a sleeping span the
     * only per-tick effect is the fairness cursor rotation, which is
     * replicated arithmetically (slot visiting order is irrelevant
     * while every visit is a no-op, but the cursor must match the
     * ticked-through value once real work resumes).
     */
    void
    skipTicks(Tick n)
    {
        if (activeSlots_ == 0)
            return;
        rrCursor_ = static_cast<std::uint32_t>(
            (rrCursor_ + n) % slots_.size());
    }

  private:
    int pickNextRead(int slot) const;
    /** Offer a read or write of sub-block @p idx on one side of @p s;
     *  the one place a request names the engine as its sender. */
    bool offer(const CopySlot &s, bool near_side, std::uint32_t idx,
               bool is_write, MemRequest::Callback cb);
    void onReadArrive(int slot, std::uint64_t gen, std::uint32_t idx,
                      Tick when);
    void deliverRead(int slot, std::uint64_t gen, std::uint32_t idx,
                     Tick when);
    void checkCopyTimeouts();

    Owner &owner_;
    MemPort &near_;
    MemPort &far_;
    std::uint32_t maxReadsInFlight_;
    Tick copyTimeout_;
    stats::Scalar &staleReadsDropped_;
    stats::Scalar &copyRetries_;
    harden::FaultInjector *injector_ = nullptr;

    std::vector<CopySlot> slots_;
    std::uint32_t activeSlots_ = 0;
    std::uint32_t rrCursor_ = 0; ///< Round-robin fairness cursor.
    /**
     * The pump is asleep: the last full pass issued nothing and
     * completed nothing, so every offer it made was refused. By
     * induction, state being otherwise frozen, every further pass
     * makes the same offers to the same refusing ports until an
     * external entry point mutates slot state or a refusing port
     * sends its retry notification, and either clears this.
     */
    bool pumpSleep_ = false;
    bool pumpActivity_ = false; ///< Set by any pump-pass state change.
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_COPY_ENGINE_HH
