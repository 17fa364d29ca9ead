/**
 * @file
 * An out-of-order-approximate core model.
 *
 * The model keeps the properties the paper's evaluation depends on —
 * a bounded instruction window that fills up behind long-latency loads,
 * memory-level parallelism across independent misses, and suspension of
 * the whole thread while OS routines handle a DC tag miss — without
 * modelling pipeline structure below that level.
 *
 * Per cycle the core retires up to retireWidth completed instructions
 * from the window head and dispatches up to issueWidth new ones from
 * its Generator. Memory instructions translate through the TLB (page
 * walks go through the scheme's finishWalk hook, where OS-managed
 * schemes may suspend the thread) and then issue into the L1 cache.
 * Loads complete on response; stores are posted. Stall cycles (no
 * retirement) are attributed to the window head's state: OS handler,
 * TLB walk, or memory.
 */

#ifndef NOMAD_CPU_CORE_HH
#define NOMAD_CPU_CORE_HH

#include <deque>

#include "dramcache/scheme.hh"
#include "mem/request.hh"
#include "sim/ring_buffer.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"
#include "workload/workload.hh"

namespace nomad
{

/** Core construction parameters (Table II flavoured). */
struct CoreParams
{
    std::uint32_t issueWidth = 4;
    std::uint32_t retireWidth = 4;
    std::uint32_t windowSize = 192;   ///< ROB entries.
    Tick walkLatency = 120;           ///< HW page table walk cycles.
    std::uint64_t instructionLimit = 1'000'000;
    /** Fraction of non-memory instructions that are branches. */
    double branchRatio = 0.15;
    /** Branch misprediction rate (fraction of branches). */
    double mispredictRate = 0.02;
    /** Front-end refill bubble after a misprediction. */
    Tick flushPenalty = 14;
};

/** One simulated core running one thread. */
class Core : public SimObject, public RetrySender
{
  public:
    Core(Simulation &sim, const std::string &name, int core_id,
         const CoreParams &params, Generator &gen, Tlb &tlb,
         MemPort &l1, DramCacheScheme &scheme, PageTable &page_table);

    void tick();

    /**
     * Skip-ahead hooks (see Simulation::addClocked): a core with no
     * issue-queue head to offer and an unretirable window head has
     * nothing to do until an event callback (memory response, walk
     * completion, OS handler resume, L1 retry) changes its state —
     * except dispatch, which only waits out the front-end flush
     * penalty. A head the L1 refused is not offered again until
     * recvRetry(); skipTicks() charges the L1 one reject per elided
     * cycle, as the per-cycle re-offer would have been refused.
     */
    Tick nextWorkTick() const;
    void skipTicks(Tick n);

    /**
     * Retry notification (MemPort): the L1 is about to change state in
     * a way that could let it accept the refused issue-queue head, or
     * a PTE remap may have moved the head to another address
     * (PageTable::remap). Re-offers the head at the next clock edge.
     */
    void recvRetry() override;

    /** True once instructionLimit instructions have retired. */
    bool
    done() const
    {
        return retiredTotal_ >= params_.instructionLimit;
    }

    int coreId() const { return coreId_; }
    std::uint64_t retiredTotal() const { return retiredTotal_; }
    const CoreParams &params() const { return params_; }

    /** Raise the retirement budget (used for warm-up then measure). */
    void
    setInstructionLimit(std::uint64_t limit)
    {
        sim_.pokeClocked(wakeIdx_);
        params_.instructionLimit = limit;
    }

    /** IPC over the measured (post-reset) window. */
    double
    ipc() const
    {
        return cycles.value() > 0
                   ? instructions.value() / cycles.value()
                   : 0.0;
    }

    /** Fraction of measured cycles with zero retirement. */
    double
    stallRatio() const
    {
        return cycles.value() > 0
                   ? (stallHandler.value() + stallWalk.value() +
                      stallMem.value()) /
                         cycles.value()
                   : 0.0;
    }

    double
    handlerStallRatio() const
    {
        return cycles.value() > 0
                   ? stallHandler.value() / cycles.value()
                   : 0.0;
    }

    /**
     * What the core is waiting on right now, from the window head's
     * state — feeds the per-core line of a diagnostic snapshot.
     */
    const char *
    stallReason() const
    {
        if (done())
            return "done";
        if (inHandler_)
            return "os-handler";
        if (rob_.empty())
            return "empty-window";
        const RobEntry &head = rob_.front();
        if (head.complete || !head.isMem)
            return "retiring";
        switch (head.state) {
          case MemState::Translating:
            return "page-walk";
          case MemState::ReadyToIssue:
            return "issue-backpressure";
          case MemState::WaitingData:
            return "mem-data";
          case MemState::Done:
            return "retiring";
        }
        return "unknown";
    }

    // Statistics --------------------------------------------------------
    stats::Scalar cycles;
    stats::Scalar instructions;
    stats::Scalar memOps;
    stats::Scalar loads;
    stats::Scalar stores;
    stats::Scalar stallHandler; ///< Thread suspended in OS DC routines.
    stats::Scalar stallWalk;    ///< Head waiting on a HW page walk.
    stats::Scalar stallMem;     ///< Head waiting on memory data.
    stats::Scalar walks;        ///< HW page walks performed.
    stats::Scalar branches;     ///< Branch instructions seen.
    stats::Scalar mispredicts;  ///< Mispredicted branches (bubbles).

  private:
    enum class MemState : std::uint8_t
    {
        Translating,
        ReadyToIssue,
        WaitingData,
        Done,
    };

    struct RobEntry
    {
        bool isMem = false;
        bool isWrite = false;
        bool complete = false;
        MemState state = MemState::Done;
        Addr vaddr = 0;
        std::uint64_t seq = 0;
    };

    void dispatch();
    void startTranslation(RobEntry &entry);
    void startWalk(std::uint64_t seq, Addr vaddr);
    void finishTranslation(std::uint64_t seq, Pte *pte);
    void tryIssuePending();
    RobEntry *entryFor(std::uint64_t seq);

    CoreParams params_;
    int coreId_;
    Generator &gen_;
    Tlb &tlb_;
    MemPort &l1_;
    DramCacheScheme &scheme_;
    PageTable &pageTable_;

    /** The instruction window, oldest first; sized from windowSize. */
    RingBuffer<RobEntry> rob_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t headSeq_ = 0;
    std::uint64_t retiredTotal_ = 0;

    /** One HW walker; TLB-missing instructions queue behind it.
     *  Misses to the VPN already being walked coalesce into that walk
     *  (a deque, since coalescing erases from its middle). */
    bool walkerBusy_ = false;
    std::deque<std::uint64_t> walkQueue_;
    /** The thread is inside an OS DC-miss routine (no dispatch). */
    bool inHandler_ = false;

    /** Translated entries waiting for the L1 to accept them; each is
     *  in the window, so windowSize bounds it too. */
    RingBuffer<std::pair<std::uint64_t, Pte *>> issueQueue_;
    /** The L1 refused the issue-queue head and owes a retry. */
    bool l1Blocked_ = false;

    /** Misprediction bubble: no dispatch until this tick. */
    Tick fetchStallUntil_ = 0;
    Rng branchRng_{0xb4a2c};
    /** This core's clocked-component handle (for pokeClocked). */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;
};

} // namespace nomad

#endif // NOMAD_CPU_CORE_HH
