/**
 * @file
 * The NOMAD back-end hardware (Section III-D).
 *
 * The back-end receives page-copy commands (cache fills, writebacks)
 * from the front-end OS routines through a memory-mapped interface
 * register, traces each outstanding command in a PCSHR (page copy
 * status/information holding register), and stages sub-blocks through
 * page copy buffers. Each PCSHR carries the paper's fields: valid (V),
 * type (T), PFN, CFN, priority (P) + prioritized sub-block index (PI)
 * for critical-data-first handling, the read-issued (R), in-buffer (B)
 * and partial-write (W) 64-bit vectors, and a small set of sub-entries
 * holding accesses that data-missed while the page was in transfer.
 *
 * The area-optimized design of Section IV-B7 is modelled by allowing
 * fewer page copy buffers than PCSHRs: a PCSHR only starts transfers
 * once a buffer is assigned to it (FIFO).
 *
 * The PCSHRs are the slots of a CopyEngine (copy_engine.hh), which
 * pumps the sub-block transfers; this class adds the interface
 * register, page copy buffers, sub-entries and access().
 */

#ifndef NOMAD_DRAMCACHE_NOMAD_BACKEND_HH
#define NOMAD_DRAMCACHE_NOMAD_BACKEND_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "dram/device.hh"
#include "dramcache/copy_engine.hh"
#include "mem/request.hh"
#include "sim/flat_map.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace nomad
{

namespace harden
{
class Snapshot;
} // namespace harden

/** Back-end construction parameters. */
struct NomadBackEndParams
{
    std::uint32_t numPcshrs = 8;
    /** Page copy buffers; 0 means one per PCSHR (non-area-optimized). */
    std::uint32_t numBuffers = 0;
    std::uint32_t subEntriesPerPcshr = 4;
    /** Outstanding source-side reads per PCSHR. */
    std::uint32_t maxReadsInFlight = 8;
    /** CPU cycles to service a read from a page copy buffer. */
    Tick bufferReadLatency = 12;
    /** Set P/PI from the interface offset (critical-data-first). */
    bool criticalDataFirst = true;
    /** Also bump sub-blocks demanded by later sub-entries (ablation). */
    bool dynamicReprioritize = false;
    /**
     * Abort-and-refetch a page copy that made no forward progress for
     * this many ticks: orphan its in-flight reads (generation bump),
     * clear the R vector back to the in-buffer state, and re-issue the
     * remaining source reads. 0 disables; the recovery path for lost
     * DRAM responses under fault injection (docs/HARDENING.md).
     */
    Tick copyTimeoutTicks = 0;
};

/** One back-end instance (one per channel group when distributed). */
class NomadBackEnd : public SimObject, private CopyEngine::Owner
{
  public:
    using AcceptCallback = std::function<void(Tick)>;
    using CompleteCallback = std::function<void(Tick)>;

    /** Outcome of the data-hit verification of a DC access (Fig 6). */
    enum class AccessResult
    {
        DataHit,  ///< No PCSHR tag match; proceed to on-package DRAM.
        Serviced, ///< Completed against the page copy buffer.
        Pending,  ///< Parked in a sub-entry until its sub-block lands.
        Reject,   ///< Sub-entries full; caller must retry.
    };

    NomadBackEnd(Simulation &sim, const std::string &name,
                 const NomadBackEndParams &params, DramDevice &on_package,
                 DramDevice &off_package);

    /**
     * Offload a cache-fill command (Algorithm 1 line 6). @p accepted
     * fires when a PCSHR is allocated: immediately if one is free,
     * later if the interface is busy (the front-end handler stalls for
     * that long inside its critical section). @p done fires when the
     * whole page resides in the DRAM cache.
     */
    void sendCacheFill(PageNum cfn, PageNum pfn,
                       std::uint32_t pri_sub_block,
                       AcceptCallback accepted,
                       CompleteCallback done = nullptr);

    /** Offload a writeback command (Algorithm 2 line 10). */
    void sendWriteback(PageNum cfn, PageNum pfn, AcceptCallback accepted,
                       CompleteCallback done = nullptr);

    /**
     * Verify the presence of data for an on-package demand access by
     * comparing the CFN against all PCSHR tags (Section III-D3). The
     * request is completed/parked internally unless the result is
     * DataHit (forward to HBM) or Reject (retry later).
     */
    AccessResult access(const MemRequestPtr &req);

    /** True while a cache-fill for @p cfn is outstanding. */
    bool hasFillInFlight(PageNum cfn) const;

    /** Valid PCSHRs right now (occupancy gauge for the sampler). */
    std::uint32_t activePcshrs() const { return engine_.activeSlots(); }

    /** Commands queued behind the busy interface right now. */
    std::size_t interfaceQueueDepth() const { return waitQ_.size(); }

    /** Interface state (S) bit: busy while commands wait for a PCSHR. */
    bool interfaceBusy() const { return !waitQ_.empty(); }

    void tick();
    bool
    idle() const
    {
        return engine_.activeSlots() == 0 && waitQ_.empty();
    }

    /**
     * Skip-ahead hooks (CopyEngine). Unhardened, the interface queues
     * a command only while every PCSHR is busy, so an empty engine
     * means an empty queue.
     */
    Tick nextWorkTick() const { return engine_.nextWorkTick(); }
    void skipTicks(Tick n) { engine_.skipTicks(n); }

    const NomadBackEndParams &params() const { return params_; }

    /**
     * Verify leak-freedom after a drain: every PCSHR and buffer back
     * in its pool, no queued command, no parked sub-entry. Throws
     * harden::SimError under --check-invariants.
     */
    void checkDrained() const;

    /** Contribute PCSHR state to a structured diagnostic snapshot. */
    void snapshot(harden::Snapshot &snap) const;

    // Statistics --------------------------------------------------------
    stats::Scalar fillCommands;
    stats::Scalar writebackCommands;
    stats::Average interfaceWait; ///< Command wait for a free PCSHR.
    stats::Scalar dataHits;       ///< Accesses with no PCSHR match.
    stats::Scalar dataMisses;     ///< Accesses matching a PCSHR.
    stats::Scalar bufferReadHits; ///< Read data-misses served from PCB.
    stats::Scalar bufferWrites;   ///< Write data-misses into the PCB.
    stats::Scalar pendingServed;  ///< Sub-entry reads served on arrival.
    stats::Scalar subEntryRejects;
    stats::Scalar readsSkipped;   ///< Source reads avoided by the R vec.
    stats::Scalar staleReadsDropped;
    stats::Average fillLatency;   ///< Command accept to page complete.
    /** Copy-timeout abort-and-refetch events. Only registered when a
     *  hardening context is attached (keeps default stats unchanged). */
    stats::Scalar copyRetries;

  private:
    struct SubEntry
    {
        bool valid = false;
        bool isWrite = false;
        std::uint32_t subIdx = 0;
        MemRequestPtr req;
    };

    /** PCSHR fields beyond the engine's CopySlot, which holds the V,
     *  T, tag and P/PI fields of Fig 6. */
    struct Pcshr
    {
        int bufferId = -1;
        CompleteCallback onDone;
        std::vector<SubEntry> subEntries;
    };

    struct WaitingCmd
    {
        bool isWriteback = false;
        PageNum cfn = InvalidPage;
        PageNum pfn = InvalidPage;
        std::uint32_t priIdx = 0;
        Tick arrived = 0;
        std::uint64_t traceId = 0;
        AcceptCallback accepted;
        CompleteCallback done;
    };

    void submit(WaitingCmd cmd);
    void allocate(WaitingCmd cmd, int slot);
    void assignBuffer(int slot);
    void releasePcshr(int slot);
    void drainBlockedCommands();
    void tracePcshrCounter();

    // CopyEngine::Owner.
    bool canTransfer(int slot) const override;
    int demandedSubBlock(int slot) const override;
    void subBlockArrived(int slot, std::uint32_t idx, Tick when) override;
    void copyDone(int slot) override;

    NomadBackEndParams params_;
    CopyEngine engine_;
    std::vector<Pcshr> pcshrs_;
    /**
     * cfn -> PCSHR slot for in-flight cache fills (the CAM of Fig 6
     * flattened into an open-addressed table). Writeback PCSHRs are
     * excluded: access() only intercepts fills.
     */
    FlatMap<int> fillIndex_;
    std::uint32_t freeBuffers_;
    std::deque<int> bufferWaiters_; ///< PCSHR slots awaiting a buffer.
    std::deque<WaitingCmd> waitQ_;  ///< Commands behind the interface.
    std::string pcshrCounterName_;  ///< Cached trace counter name.
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_NOMAD_BACKEND_HH
