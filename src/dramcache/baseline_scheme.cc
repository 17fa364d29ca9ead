#include "baseline_scheme.hh"

#include "dramcache/scheme_registry.hh"
#include "system/system.hh"

namespace nomad
{

void
registerBaselineScheme(SchemeRegistry &reg)
{
    SchemeEntry entry;
    entry.kind = SchemeKind::Baseline;
    entry.factory = [](const SchemeBuildContext &ctx)
        -> std::unique_ptr<DramCacheScheme> {
        return std::make_unique<BaselineScheme>(
            ctx.sim, "baseline", ctx.offPackage, ctx.pageTable);
    };
    reg.add(std::move(entry));
}

} // namespace nomad
