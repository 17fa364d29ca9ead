/**
 * @file
 * The scheme table: one constant row per SchemeKind.
 *
 * A row is everything src/system needs to know about one scheme: its
 * display name, the function that builds it, the validator that
 * range-checks its SystemConfig knobs, the on-package capacity it
 * needs, and the extra stats-JSON fields it contributes. The system
 * builder, SystemConfig::validate(), the stats writer and every CLI
 * read the table directly; a static_assert in schemes.cc ties its
 * length to the enum, so adding a scheme means one SchemeKind value
 * plus one row (docs/SCHEMES.md walks through it).
 */

#ifndef NOMAD_SYSTEM_SCHEMES_HH
#define NOMAD_SYSTEM_SCHEMES_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "dramcache/scheme.hh"
#include "dramcache/scheme_results.hh"

namespace nomad
{

struct SystemConfig; // system.hh

/**
 * One scheme-owned stats-JSON field: emitted by writeStatsJson()
 * between "writebacks" and "seconds", in row order, only for the
 * scheme whose row lists it (other schemes' goldens never see it).
 */
struct SchemeResultField
{
    const char *key;                      ///< JSON key, snake_case.
    double (*get)(const SystemResults &); ///< Field extractor.
};

/** One scheme. validate and onPackageFrames may be null, results empty. */
struct SchemeRow
{
    const char *name; ///< schemeKindName(); parsed case-insensitively.

    /**
     * Build the scheme. @p cfg is fully validated and capacity-fixed-up
     * by then; @p copy_timeout is the resolved page-copy retry timeout
     * (explicit value vs. fault-injection default, see System's
     * constructor), so build functions never re-derive it.
     */
    std::unique_ptr<DramCacheScheme> (*build)(
        Simulation &sim, const SystemConfig &cfg, DramDevice &ddr,
        DramDevice &hbm, PageTable &page_table, Tick copy_timeout);

    /**
     * Range/consistency-check this scheme's SystemConfig knobs;
     * throws harden::SimError(ConfigError).
     */
    void (*validate)(const SystemConfig &cfg);

    /**
     * On-package frames the scheme needs; the builder grows the HBM
     * capacity to hold them. Null = cfg.dcFrames.
     */
    std::uint64_t (*onPackageFrames)(const SystemConfig &cfg);

    /** Scheme-owned stats-JSON fields, in emission order. */
    std::span<const SchemeResultField> results;
};

/** The row of @p kind, or null for a value outside the enum. */
const SchemeRow *schemeRow(SchemeKind kind);

/** Every SchemeKind, in enum (= table) order: the whole zoo. */
inline constexpr std::array<SchemeKind, NumSchemeKinds> EverySchemeKind =
    [] {
        std::array<SchemeKind, NumSchemeKinds> kinds{};
        for (std::size_t i = 0; i < kinds.size(); ++i)
            kinds[i] = static_cast<SchemeKind>(i);
        return kinds;
    }();

} // namespace nomad

#endif // NOMAD_SYSTEM_SCHEMES_HH
