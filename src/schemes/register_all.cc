#include "register_all.hh"

#include "dramcache/scheme_registry.hh"

namespace nomad
{

void
registerAllSchemes()
{
    // Sweep workers construct Systems, and so call this, concurrently;
    // the static's initialization runs the registration exactly once.
    static const bool registered = [] {
        SchemeRegistry &reg = SchemeRegistry::instance();
        registerBaselineScheme(reg);
        registerTidScheme(reg);
        registerTdcScheme(reg);
        registerNomadScheme(reg);
        registerIdealScheme(reg);
        registerTieringScheme(reg);
        registerAlloyScheme(reg);
        registerBansheeScheme(reg);
        registerTdramScheme(reg);
        return true;
    }();
    (void)registered;
}

} // namespace nomad
