#include "layers.hh"

#include <cstdio>
#include <vector>

#include "vm/page_table.hh"

namespace perfbench
{

namespace
{

using namespace nomad;

/** Calls per batch span: long enough that the clock reads vanish. */
constexpr std::size_t BatchOps = 4096;
constexpr int MinBatches = 4;
/** Physical frames for the driver's page table (a map; no storage). */
constexpr std::uint64_t DriverFrames = 1ULL << 24;
/** Round trip of the memory below the driven L3, in CPU ticks. */
constexpr Tick MemoryLatency = 150;
/** L1 accesses offered per tick (the core issues about two). */
constexpr std::uint32_t CacheOpsPerTick = 2;
/** Reads in flight per DRAM device (an MSHR-limited requester). */
constexpr std::uint64_t MaxDramReads = 32;
/** Simulation::run horizon while a batch is being fed. */
constexpr Tick RunChunk = 10'000;
/** Ticks the final drain of a driver may take before giving up. */
constexpr Tick DrainLimit = 10'000'000;

struct MemOp
{
    Addr paddr;
    PageNum vpn;
    Pte *pte;
    bool isWrite;
};

/**
 * Core 0's memory operations, translated the way its page walk would
 * translate them (first touch maps the next free frame).
 */
class OpStream
{
  public:
    explicit OpStream(const SystemConfig &cfg)
        : gen_(cfg.customWorkload ? *cfg.customWorkload
                                  : profileByName(cfg.workload),
               Addr(1) << 40, cfg.seed * 7919),
          pageTable_(DriverFrames)
    {
        ops_.reserve(BatchOps);
    }

    const std::vector<MemOp> &
    nextBatch()
    {
        ops_.clear();
        while (ops_.size() < BatchOps) {
            const InstrRecord r = gen_.next();
            if (!r.isMem)
                continue;
            const PageNum vpn = pageOf(r.vaddr);
            Pte *pte = pageTable_.touch(vpn);
            const Addr paddr = (static_cast<Addr>(pte->frame)
                                << PageShift) |
                               blockAlign(pageOffset(r.vaddr));
            ops_.push_back(MemOp{paddr, vpn, pte, r.isWrite});
        }
        return ops_;
    }

  private:
    SyntheticGenerator gen_;
    PageTable pageTable_;
    std::vector<MemOp> ops_;
};

/** Accepts everything; reads complete a fixed latency later. */
class FixedLatencyMemory : public MemPort
{
  public:
    explicit FixedLatencyMemory(Simulation &sim) : sim_(sim) {}

    bool
    tryAccess(const MemRequestPtr &req) override
    {
        if (req->isWrite) {
            req->complete(sim_.now());
            return true;
        }
        sim_.schedule(MemoryLatency,
                      [this, req]() { req->complete(sim_.now()); });
        return true;
    }

  private:
    Simulation &sim_;
};

/**
 * A minimal requester clocked by the simulation, so the driven layer
 * is called from inside Simulation::run the way the core or a scheme
 * calls it. Each tick it offers up to `perTick` operations through
 * `offer` (which builds the request and calls the layer's tryAccess);
 * a refused one is offered again RetryTicks later, and the feeder
 * sleeps until then so the run loop does not spin on it.
 */
template <typename Offer>
class Feeder
{
  public:
    static constexpr Tick RetryTicks = 8;

    Feeder(Simulation &sim, std::uint32_t perTick, Offer offer)
        : sim_(sim), perTick_(perTick), offer_(std::move(offer))
    {
        sim.addClocked(this, 1);
    }

    Feeder(const Feeder &) = delete;
    Feeder &operator=(const Feeder &) = delete;

    void
    load(const std::vector<MemOp> &ops)
    {
        ops_ = &ops;
        next_ = 0;
    }

    bool done() const { return !ops_ || next_ == ops_->size(); }
    bool idle() const { return done(); }
    Tick nextWorkTick() const { return done() ? MaxTick : retryAt_; }

    void
    tick()
    {
        if (sim_.now() < retryAt_)
            return;
        for (std::uint32_t n = 0; n < perTick_ && !done(); ++n) {
            if (!offer_((*ops_)[next_])) {
                retryAt_ = sim_.now() + RetryTicks;
                return;
            }
            ++next_;
        }
    }

  private:
    Simulation &sim_;
    std::uint32_t perTick_;
    Offer offer_;
    const std::vector<MemOp> *ops_ = nullptr;
    std::size_t next_ = 0;
    Tick retryAt_ = 0;
};

/**
 * Run @p batch until @p seconds have passed (at least MinBatches
 * times) under one "<layer>.driver" span of a fresh trace.
 */
template <typename Batch>
void
timedPasses(SpanRecorder &rec, const char *driverSpan, double seconds,
            Batch &&batch)
{
    const std::uint32_t trace = rec.newTrace();
    SpanScope pass(&rec, driverSpan, SpanRecorder::NoSpan, trace);
    const auto t0 = Clock::now();
    for (int n = 0; n < MinBatches || secondsSince(t0) < seconds; ++n)
        batch(pass.id(), trace);
}

/** One batch through @p feeder, as one span named @p name. */
template <typename F>
void
feedBatch(SpanRecorder &rec, const char *name, SpanRecorder::SpanId parent,
          std::uint32_t trace, Simulation &sim, F &feeder,
          const std::vector<MemOp> &ops)
{
    SpanScope s(&rec, name, parent, trace);
    feeder.load(ops);
    while (!feeder.done())
        sim.run(RunChunk);
    s.ops = ops.size();
}

/** Run @p sim until @p quiet holds (bounded), releasing requests. */
template <typename Quiet>
void
drain(Simulation &sim, Quiet &&quiet)
{
    const Tick limit = sim.now() + DrainLimit;
    while (!quiet() && sim.now() < limit)
        sim.run(RunChunk);
}

std::uint64_t
driveWorkload(const SystemConfig &cfg, double seconds, SpanRecorder &rec)
{
    SyntheticGenerator gen(cfg.customWorkload
                               ? *cfg.customWorkload
                               : profileByName(cfg.workload),
                           Addr(1) << 40, cfg.seed * 7919);
    std::uint64_t sink = 0;
    timedPasses(rec, "workload.driver", seconds,
                [&](SpanRecorder::SpanId parent, std::uint32_t trace) {
                    SpanScope s(&rec, "workload.next", parent, trace);
                    for (std::size_t i = 0; i < BatchOps; ++i) {
                        const InstrRecord r = gen.next();
                        sink += r.vaddr + r.isMem;
                    }
                    s.ops = BatchOps;
                });
    return sink;
}

void
driveCache(const SystemConfig &cfg, double seconds, SpanRecorder &rec)
{
    Simulation sim;
    FixedLatencyMemory memory(sim);
    SramCache l3(sim, "l3", cfg.l3, &memory);
    SramCache l2(sim, "l2", cfg.l2, &l3);
    SramCache l1(sim, "l1", cfg.l1, &l2);
    MemRequestPtr pending;
    Feeder feeder(sim, CacheOpsPerTick, [&](const MemOp &op) {
        if (!pending) {
            pending = makeRequest(op.paddr, op.isWrite, Category::Demand,
                                  MemSpace::OffPackage, sim.now(),
                                  nullptr, 0);
        }
        if (!l1.tryAccess(pending))
            return false;
        pending.reset();
        return true;
    });
    OpStream stream(cfg);
    timedPasses(rec, "cache.driver", seconds,
                [&](SpanRecorder::SpanId parent, std::uint32_t trace) {
                    feedBatch(rec, "cache.access", parent, trace, sim,
                              feeder, stream.nextBatch());
                });
    drain(sim, [&] { return l1.idle() && l2.idle() && l3.idle(); });
    sim.run(MemoryLatency);
}

void
driveTlb(const SystemConfig &cfg, double seconds, SpanRecorder &rec)
{
    Simulation sim;
    Tlb tlb(sim, "tlb", cfg.tlb);
    OpStream stream(cfg);
    timedPasses(rec, "vm.driver", seconds,
                [&](SpanRecorder::SpanId parent, std::uint32_t trace) {
                    const std::vector<MemOp> &ops = stream.nextBatch();
                    SpanScope s(&rec, "vm.lookup", parent, trace);
                    for (const MemOp &op : ops) {
                        if (!tlb.lookup(op.vpn).hit)
                            tlb.insert(op.vpn, op.pte);
                    }
                    s.ops = ops.size();
                });
}

/**
 * One DRAM device in its own Simulation, fed one request per tick with
 * at most MaxDramReads reads in flight.
 */
void
driveDevice(const char *name, const char *span, const DramTiming &timing,
            MemSpace space, const SystemConfig &cfg, double seconds,
            SpanRecorder &rec)
{
    Simulation sim;
    DramDevice dev(sim, name, timing);
    std::uint64_t readsInFlight = 0;
    MemRequestPtr pending;
    Feeder feeder(sim, 1, [&](const MemOp &op) {
        if (!pending) {
            if (!op.isWrite && readsInFlight >= MaxDramReads)
                return false;
            MemRequest::Callback done;
            if (!op.isWrite) {
                ++readsInFlight; // Held until the read completes.
                done = [&readsInFlight](Tick) { --readsInFlight; };
            }
            pending = makeRequest(op.paddr % timing.capacityBytes,
                                  op.isWrite, Category::Demand, space,
                                  sim.now(), std::move(done), 0);
        }
        if (!dev.tryAccess(pending))
            return false;
        pending.reset();
        return true;
    });
    OpStream stream(cfg);
    timedPasses(rec, "dram.driver", seconds,
                [&](SpanRecorder::SpanId parent, std::uint32_t trace) {
                    feedBatch(rec, span, parent, trace, sim, feeder,
                              stream.nextBatch());
                });
    drain(sim, [&] { return readsInFlight == 0 && dev.idle(); });
}

} // namespace

void
driveLayers(const SystemConfig &cfg, double seconds, SpanRecorder &rec)
{
    if (driveWorkload(cfg, seconds, rec) == 0)
        std::fprintf(stderr, "workload driver sink was zero\n");
    driveCache(cfg, seconds, rec);
    driveTlb(cfg, seconds, rec);
    driveDevice("hbm", "dram.hbm.access", cfg.hbm, MemSpace::OnPackage,
                cfg, seconds / 2, rec);
    driveDevice("ddr", "dram.ddr.access", cfg.ddr, MemSpace::OffPackage,
                cfg, seconds / 2, rec);
}

} // namespace perfbench
