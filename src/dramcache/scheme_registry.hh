/**
 * @file
 * The pluggable scheme registry.
 *
 * A DRAM-cache scheme is one self-contained registration: a
 * SchemeEntry bundles the factory that builds it, the validator that
 * range-checks its SystemConfig knobs, the on-package capacity it
 * needs, and the extra stats-JSON fields it contributes. The system
 * builder, SystemConfig::validate(), the stats writer, and every CLI
 * resolve schemes exclusively through this table — adding a scheme
 * means adding one entry, not editing switches across src/system
 * (docs/SCHEMES.md walks through it).
 *
 * Registration is by explicit function call, not static initializers:
 * the schemes live in static libraries, where unreferenced
 * initializer objects are legal to dead-strip. Each scheme's TU
 * defines a registerXxxScheme(SchemeRegistry &) entry point (declared
 * below) and src/schemes/register_all.cc calls them all; the direct
 * symbol references keep every scheme object in the link.
 */

#ifndef NOMAD_DRAMCACHE_SCHEME_REGISTRY_HH
#define NOMAD_DRAMCACHE_SCHEME_REGISTRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "scheme.hh"
#include "scheme_results.hh"

namespace nomad
{

struct SystemConfig; // src/system/system.hh

/**
 * Everything a scheme factory may draw on. The config is fully
 * validated and capacity-fixed-up by the time a factory runs; the
 * copy-timeout policy (explicit value vs. fault-injection default,
 * see System's constructor) is already resolved into
 * copyTimeoutTicks so factories never re-derive it.
 */
struct SchemeBuildContext
{
    Simulation &sim;
    const SystemConfig &config;
    DramDevice &offPackage;   ///< Large-capacity DDR ("ddr").
    DramDevice &onPackage;    ///< High-bandwidth HBM ("hbm").
    PageTable &pageTable;
    Tick copyTimeoutTicks;    ///< Resolved page-copy retry timeout.
};

/**
 * One scheme-owned stats-JSON field: emitted by writeStatsJson()
 * between "writebacks" and "seconds", in registration order, only for
 * the scheme that declared it (other schemes' goldens never see it).
 */
struct SchemeResultField
{
    const char *key;                      ///< JSON key, snake_case.
    double (*get)(const SystemResults &); ///< Field extractor.
};

/** One registered scheme. */
struct SchemeEntry
{
    SchemeKind kind; ///< Named by schemeKindName(kind).

    /** Build the scheme (instance name, params) from the context. */
    std::unique_ptr<DramCacheScheme> (*factory)(
        const SchemeBuildContext &);

    /**
     * Range/consistency-check this scheme's SystemConfig knobs;
     * throws harden::SimError(ConfigError). Null = nothing to check.
     */
    void (*validate)(const SystemConfig &) = nullptr;

    /**
     * On-package frames the scheme needs; the builder grows the HBM
     * capacity to hold them. Null = config.dcFrames.
     */
    std::uint64_t (*requiredOnPackageFrames)(const SystemConfig &) =
        nullptr;

    /** Scheme-owned stats-JSON fields, in emission order. */
    std::vector<SchemeResultField> extraResults;
};

/**
 * The process-wide scheme table. Thread-compatible like the rest of
 * the simulator: registerAllSchemes() fills it once, even when sweep
 * workers construct their Systems concurrently, and lookups are const.
 */
class SchemeRegistry
{
  public:
    static SchemeRegistry &instance();

    /**
     * Register @p entry. Idempotent per kind: re-registration is
     * ignored and returns false, so calling registerAllSchemes()
     * twice is harmless.
     */
    bool add(SchemeEntry entry);

    /** Entry for @p kind, or null when unregistered. */
    const SchemeEntry *find(SchemeKind kind) const;

    /** Case-insensitive name lookup, or null when unknown. */
    const SchemeEntry *findByName(const std::string &name) const;

    /** All entries in SchemeKind order. */
    std::vector<const SchemeEntry *> all() const;

    /** Comma-separated registered names, in SchemeKind order. */
    std::string namesCsv() const;

    /**
     * Entry for @p kind; throws harden::SimError(ConfigError) listing
     * the registered names when the kind is unregistered.
     */
    const SchemeEntry &entryFor(SchemeKind kind) const;

    /**
     * Parse a --scheme name; throws harden::SimError(ConfigError)
     * listing the registered names when it matches none.
     */
    SchemeKind parseNameOrThrow(const std::string &name) const;

    std::size_t size() const { return entries_.size(); }

  private:
    SchemeRegistry() = default;

    std::map<SchemeKind, SchemeEntry> entries_;
};

// Per-scheme registration entry points. Each is defined in its
// scheme's TU and is idempotent (SchemeRegistry::add ignores
// repeats); registerAllSchemes() in src/schemes calls every one.
void registerBaselineScheme(SchemeRegistry &reg);
void registerTidScheme(SchemeRegistry &reg);
void registerTdcScheme(SchemeRegistry &reg);
void registerNomadScheme(SchemeRegistry &reg);
void registerIdealScheme(SchemeRegistry &reg);
void registerTieringScheme(SchemeRegistry &reg);
void registerAlloyScheme(SchemeRegistry &reg);
void registerBansheeScheme(SchemeRegistry &reg);
void registerTdramScheme(SchemeRegistry &reg);

} // namespace nomad

#endif // NOMAD_DRAMCACHE_SCHEME_REGISTRY_HH
