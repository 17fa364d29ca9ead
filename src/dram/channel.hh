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

#include <algorithm>
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

    /**
     * Advance one controller cycle. The write-drain hysteresis runs on
     * every edge; the scheduler only from nextWorkTick() on.
     */
    void tick();

    /**
     * Account @p n elided edges. Each would only have run the
     * write-drain hysteresis on the frozen queue sizes, and one run of
     * it is a fixed point, so the count does not matter.
     */
    void skipTicks(Tick /*n*/) { updateDrainMode(); }

    /**
     * True when both queues are empty. Reads past their CAS are not
     * counted: they are pending completion events.
     */
    bool
    idle() const
    {
        return readQ_.size == 0 && writeQ_.size == 0;
    }

    /**
     * The earliest tick at which this channel issues a command (or
     * starts a refresh): exact after every evaluation and enqueue().
     * Every DRAM gate is a pure time threshold over state that only
     * tick() and enqueue() mutate, so no edge before it can issue; a
     * value <= now means the channel issues this cycle.
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

    /** A Lane::hitSeq with no entry behind it: above every real age,
     *  so it never wins an oldest-first comparison. */
    static constexpr std::uint64_t NoHit = ~0ULL;
    /** The busy masks' width, and so the most banks a channel has. */
    static constexpr std::uint32_t MaxBanks = 64;

    /**
     * What the scheduler needs of one bank's list in one direction:
     * its two command claimants and when each can issue. Kept up to
     * date by every change to the list, to the bank, or to a bank
     * group or rank gate over it, so that no scheduling pass reads the
     * list itself.
     */
    struct Lane
    {
        std::uint64_t headSeq = 0; ///< Oldest entry (list non-empty).
        /** Oldest entry on the bank's open row; NoHit when there is
         *  none or the bank is closed. */
        std::uint64_t hitSeq = NoHit;
        /** When the hit passes its bank's tRCD and its bank group's
         *  tCCD (MaxTick: no hit). Its CAS also waits for casGate(). */
        Tick casAt = MaxTick;
        /**
         * When the head may PRE (another row is open) or ACT (the bank
         * is closed) its bank. MaxTick while the head is on the open
         * row: it waits for its CAS, and a younger entry may not claim
         * the bank.
         */
        Tick rowAt = MaxTick;
        std::uint64_t headRow = 0; ///< The head's row.
        std::uint32_t hitPos = 0;  ///< The hit's index in the list.
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
        std::array<Lane, MaxBanks> lanes{};
        std::uint64_t busy = 0;
        std::size_t size = 0;
        std::uint64_t nextSeq = 0;

        void
        push(std::uint32_t bank, QEntry entry)
        {
            entry.seq = nextSeq++;
            std::vector<QEntry> &list = banks[bank];
            if (list.empty()) {
                lanes[bank].headSeq = entry.seq;
                lanes[bank].headRow = entry.row;
                lanes[bank].hitSeq = NoHit;
            }
            list.push_back(std::move(entry));
            busy |= 1ULL << bank;
            ++size;
        }

        /** Remove the entry at @p pos; the caller re-finds the hit
         *  and settles the lane. */
        QEntry
        take(std::uint32_t bank, std::size_t pos)
        {
            std::vector<QEntry> &list = banks[bank];
            QEntry entry = std::move(list[pos]);
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(pos));
            if (list.empty()) {
                busy &= ~(1ULL << bank);
            } else if (pos == 0) {
                lanes[bank].headSeq = list.front().seq;
                lanes[bank].headRow = list.front().row;
            }
            --size;
            return entry;
        }
    };

    struct BankState
    {
        std::uint64_t row = 0; ///< The open row, while isOpen().
        Tick nextActivate = 0;
        std::array<Tick, 2> nextCas{}; ///< tRCD, by direction (write).
        Tick nextPrecharge = 0;
        std::uint32_t rank = 0;
        std::uint32_t group = 0; ///< rank * bankGroups + bank group.
    };

    struct RankState
    {
        std::array<Tick, 4> actWindow{}; ///< tFAW sliding window.
        std::uint32_t actWindowIdx = 0;
        std::uint64_t actCount = 0;      ///< tFAW applies after 4 ACTs.
        Tick actGate = 0; ///< Earliest next ACT: tRRD, then tFAW.
        Tick nextRefresh = 0;
    };

    /** Start the all-bank refresh of @p rank that is due now. */
    void refresh(std::uint32_t rank);
    /** Write-drain hysteresis on the current queue sizes. */
    void updateDrainMode();
    /** One FR-FCFS pass over @p q: issue its best command, if any. */
    bool tryIssue(Queue &q, bool is_write);
    void issueCas(std::uint32_t bank, QEntry entry, bool is_write,
                  Tick now);
    /** Point @p q's lane of bank @p b at its oldest entry, from index
     *  @p from on, on the bank's open row. */
    void findHit(Queue &q, std::uint32_t b, std::size_t from);
    /** Recompute @p lane's gates from bank @p b's state. */
    void settleLane(Lane &lane, std::uint32_t b, bool is_write) const;
    /** Settle both lanes of every queued bank in @p mask. */
    void settleBanks(std::uint64_t mask);
    /** Fold the entry just pushed onto bank @p b of @p q into its lane
     *  and into the sleep bound. */
    void noteQueued(Queue &q, bool is_write, std::uint32_t b);
    void observe(DramCommand cmd, Tick tick, std::uint32_t bank,
                 std::uint64_t row) const;

    /** Banks first .. first + n - 1 as a mask. */
    static std::uint64_t
    bankSpan(std::uint32_t first, std::uint32_t n)
    {
        return (n >= MaxBanks ? ~0ULL : (1ULL << n) - 1) << first;
    }

    /** The channel-wide CAS gate: bus turnaround and burst overlap. */
    Tick
    casGate(bool is_write) const
    {
        const Tick lat = is_write ? tCWL_ : tCL_;
        return std::max(nextCas_[is_write],
                        busBusyUntil_ > lat ? busBusyUntil_ - lat : 0);
    }

    /** Earliest tick at which @p q can issue any command. */
    Tick queueWake(const Queue &q, bool is_write) const;

    const DramTiming &timing_;
    DramStats &stats_;

    // Timing parameters pre-converted to CPU ticks.
    Tick tCL_, tCWL_, tRCD_, tRP_, tRAS_, tRTP_, tWR_, tWTR_, tRTW_;
    Tick tCCD_, tRRD_, tFAW_, tRFC_, tREFI_, tBL_;

    std::vector<RankState> ranks_;
    std::vector<BankState> banks_; ///< By global bank.
    Queue readQ_;
    Queue writeQ_;

    /** One bit per bank with an open row. */
    std::uint64_t openBanks_ = 0;
    bool isOpen(std::uint32_t b) const { return openBanks_ >> b & 1; }

    /** Data bus occupancy (end of the latest scheduled burst). */
    Tick busBusyUntil_ = 0;
    /** Earliest next CAS by direction (write): bus turnaround. */
    std::array<Tick, 2> nextCas_{};
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
     * Sleep bound (nextWorkTick()): tick() recomputes it after every
     * evaluation and enqueue() lowers it to the new entry's earliest
     * command, so it is always the earliest issuing edge.
     */
    Tick nextWake_ = 0;
    /** This channel's clocked-component handle (for pokeClocked). */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;
};

} // namespace nomad

#endif // NOMAD_DRAM_CHANNEL_HH
