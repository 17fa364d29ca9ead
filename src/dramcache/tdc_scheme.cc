#include "tdc_scheme.hh"

namespace nomad
{

TdcScheme::TdcScheme(Simulation &sim, const std::string &name,
                     const TdcParams &params, DramDevice &off_package,
                     DramDevice &on_package, PageTable &page_table)
    : OsManagedScheme(sim, name, off_package, on_package, page_table),
      params_(params)
{
    NomadBackEndParams engine;
    // One copy slot per core plus headroom for daemon writebacks.
    engine.numPcshrs = params.copyEngines * 2;
    engine.maxReadsInFlight = params.maxReadsInFlight;
    engine.copyTimeoutTicks = params.copyTimeoutTicks;
    // The thread waits for the whole page anyway; fetch sequentially.
    engine.criticalDataFirst = false;
    engine_ = std::make_unique<NomadBackEnd>(sim, name + ".copy", engine,
                                             on_package, off_package);
    adapter_ = std::make_unique<Adapter>(*engine_);

    OsFrontEndParams fe = params.frontEnd;
    fe.globalMutex = false; // Per-PTE locking (Section IV-A).
    fe.blocking = true;     // The defining property of TDC.
    frontEnd_ = std::make_unique<OsFrontEnd>(sim, name + ".fe", fe,
                                             page_table, *adapter_);
}

} // namespace nomad
