/**
 * @file
 * One DRAM channel: per-bank command queues, FR-FCFS scheduling, and
 * bank/rank timing enforcement.
 *
 * The controller issues at most one command (ACT, PRE, RD, WR, REF) per
 * controller cycle. Reads complete tCL + tBL after CAS issue; writes are
 * posted (their callback fires at queue acceptance) but still occupy the
 * command/data path for timing. All internal timestamps are CPU ticks;
 * DramTiming parameters are converted once at construction.
 */

#ifndef NOMAD_DRAM_CHANNEL_HH
#define NOMAD_DRAM_CHANNEL_HH

#include <array>
#include <vector>

#include "dram/address_mapping.hh"
#include "dram/stats.hh"
#include "dram/timing.hh"
#include "mem/request.hh"
#include "sim/simulation.hh"

namespace nomad
{

/** The commands a DramChannel issues. */
enum class DramCommand : std::uint8_t
{
    Act,
    Pre,
    Rd,
    Wr,
    Ref,
};

/**
 * Opt-in listener for every command a DramChannel issues, in issue
 * order. ACT, PRE, RD and WR name one bank (PRE the row it closes).
 * REF is an all-bank refresh of @p rank (bank group, bank and row are
 * 0): it closes every open bank of the rank, and its tick is when the
 * refresh begins, which is later than the call when an open bank must
 * first reach its precharge gate and tRP.
 */
class DramCommandObserver
{
  public:
    virtual void command(DramCommand cmd, Tick tick, std::uint32_t rank,
                         std::uint32_t bank_group, std::uint32_t bank,
                         std::uint64_t row) = 0;

  protected:
    ~DramCommandObserver() = default;
};

/** A single DRAM channel controller. */
class DramChannel : public SimObject
{
  public:
    DramChannel(Simulation &sim, const std::string &name,
                const DramTiming &timing, DramStats &stats);

    /**
     * Offer a request to this channel. Returns false when the relevant
     * queue is full; the channel then owes the request's sender a
     * notification (MemPort), paid before a CAS leaves that queue or,
     * for a refused read, before a write it could forward from joins
     * the write queue. Writes complete (posted) on acceptance; reads
     * that hit a queued write are forwarded without a DRAM access.
     * @p coord is the request's pre-decoded address (the device
     * already decoded it to route here; re-decoding per queue entry
     * was a measurable slice of simulation time).
     */
    bool enqueue(const MemRequestPtr &req, const DramCoord &coord);

    /** Advance one controller cycle. */
    void tick();

    /** True when both queues and all in-flight state are drained. */
    bool
    idle() const
    {
        return readQ_.size == 0 && writeQ_.size == 0;
    }

    /**
     * Earliest tick at which this channel can issue a command (or run
     * refresh bookkeeping), given its current queues and bank state.
     * Every DRAM gate is a pure time threshold over state that only
     * tick() and enqueue() mutate, so after a pass in which nothing
     * issued, tick() computes the bound once and sleeps on it; a
     * value <= now means the channel must evaluate this cycle.
     */
    Tick nextWorkTick() const { return nextWake_; }

    std::size_t readQueueSize() const { return readQ_.size; }
    std::size_t writeQueueSize() const { return writeQ_.size; }

    /** Report every issued command to @p obs (null: none). */
    void setCommandObserver(DramCommandObserver *obs) { observer_ = obs; }

  private:
    struct QEntry
    {
        MemRequestPtr req;
        Addr block = 0;           ///< blockAlign(addr), merge/forward key.
        std::uint64_t row = 0;
        Tick enqueued = 0;
        std::uint64_t seq = 0;    ///< Age in its queue (set by push).
        bool sawConflict = false; ///< We had to PRE for this entry.
        bool sawActivate = false; ///< We had to ACT for this entry.
    };

    /**
     * One direction's queue, split by global bank (rank * banks per
     * rank + flat bank): each bank's list is in age order, and `busy`
     * marks the banks whose list is non-empty, so a scheduling pass
     * visits only those. The lists keep their capacity, so a warm
     * queue allocates nothing.
     */
    struct Queue
    {
        std::vector<std::vector<QEntry>> banks;
        std::uint64_t busy = 0;
        std::size_t size = 0;
        std::uint64_t nextSeq = 0;

        void
        push(std::uint32_t bank, QEntry entry)
        {
            entry.seq = nextSeq++;
            banks[bank].push_back(std::move(entry));
            busy |= 1ULL << bank;
            ++size;
        }

        QEntry
        take(std::uint32_t bank, std::size_t pos)
        {
            std::vector<QEntry> &list = banks[bank];
            QEntry entry = std::move(list[pos]);
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(pos));
            if (list.empty())
                busy &= ~(1ULL << bank);
            --size;
            return entry;
        }
    };

    struct BankState
    {
        bool open = false;
        std::uint64_t row = 0;
        Tick nextActivate = 0;
        Tick nextRead = 0;
        Tick nextWrite = 0;
        Tick nextPrecharge = 0;
        std::uint32_t rank = 0;
        std::uint32_t group = 0; ///< rank * bankGroups + bank group.
    };

    struct RankState
    {
        std::array<Tick, 4> actWindow{}; ///< tFAW sliding window.
        std::uint32_t actWindowIdx = 0;
        std::uint64_t actCount = 0;      ///< tFAW applies after 4 ACTs.
        Tick nextAct = 0;                ///< tRRD constraint.
        Tick nextRefresh = 0;
        Tick refreshUntil = 0;
    };

    /** Start the all-bank refresh of @p rank that is due now. */
    void refresh(std::uint32_t rank);
    /**
     * One FR-FCFS pass over @p q: issue its best command, if any. The
     * pass doubles as a wake-bound collector: when it cannot issue,
     * it lowers @p wake to the earliest tick at which one of its gates
     * could open (conservative — never later than the true earliest,
     * so sleeping until it is always sound).
     */
    bool tryIssue(Queue &q, bool is_write, Tick &wake);
    void issueCas(std::uint32_t bank, QEntry entry, bool is_write,
                  Tick now);
    void observe(DramCommand cmd, Tick tick, std::uint32_t bank,
                 std::uint64_t row) const;

    const DramTiming &timing_;
    DramStats &stats_;

    // Timing parameters pre-converted to CPU ticks.
    Tick tCL_, tCWL_, tRCD_, tRP_, tRAS_, tRTP_, tWR_, tWTR_, tRTW_;
    Tick tCCD_, tRRD_, tFAW_, tRFC_, tREFI_, tBL_;

    std::vector<RankState> ranks_;
    std::vector<BankState> banks_; ///< By global bank.
    Queue readQ_;
    Queue writeQ_;

    /** Data bus occupancy (end of the latest scheduled burst). */
    Tick busBusyUntil_ = 0;
    /** Earliest next read / write CAS (bus-turnaround constraints). */
    Tick nextReadCas_ = 0;
    Tick nextWriteCas_ = 0;
    /** CAS-to-CAS constraint (tCCD) by BankState::group. */
    std::vector<Tick> nextCasGroup_;

    DramCommandObserver *observer_ = nullptr;

    /** Write-drain hysteresis state. */
    bool drainingWrites_ = false;

    /** Senders the full read and write queues refused. */
    RetryList readRetry_;
    RetryList writeRetry_;
    /**
     * One bit per refused read's block, hashed (refusedBit): a write
     * to a block with no bit set cannot let any of them forward, so
     * it need not wake the read senders. Cleared when they are paid.
     */
    std::uint64_t refusedReads_ = 0;

    static std::uint64_t
    refusedBit(Addr block)
    {
        return 1ULL << ((block >> BlockShift) & 63);
    }

    void
    payReadRetries()
    {
        refusedReads_ = 0;
        readRetry_.pay();
    }

    /** All writes to nextWake_ funnel through here. */
    void setWake(Tick t) { nextWake_ = t; }

    /**
     * Sleep bound: tick() is a provable no-op strictly before this.
     * Maintained by tick() (computed after a pass that issued nothing)
     * and reset by enqueue() (new entries can be issuable at once).
     */
    Tick nextWake_ = 0;
    /** This channel's clocked-component handle (for pokeClocked). */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;
};

} // namespace nomad

#endif // NOMAD_DRAM_CHANNEL_HH
