#include "ideal_scheme.hh"

#include "dramcache/scheme_registry.hh"
#include "system/system.hh"

namespace nomad
{

void
registerIdealScheme(SchemeRegistry &reg)
{
    SchemeEntry entry;
    entry.kind = SchemeKind::Ideal;
    entry.factory = [](const SchemeBuildContext &ctx)
        -> std::unique_ptr<DramCacheScheme> {
        return std::make_unique<IdealScheme>(
            ctx.sim, "ideal", ctx.offPackage, ctx.onPackage,
            ctx.pageTable, ctx.config.dcFrames);
    };
    reg.add(std::move(entry));
}

} // namespace nomad
