/**
 * @file
 * Fundamental simulator-wide type definitions and constants.
 *
 * All timing in the simulator is expressed in CPU clock ticks (one tick
 * equals one CPU core cycle). Components running at slower clocks (e.g.,
 * DRAM controllers) register with a clock period of several ticks
 * (Simulation::addClocked).
 */

#ifndef NOMAD_SIM_TYPES_HH
#define NOMAD_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace nomad
{

/** Simulation time in CPU clock cycles. */
using Tick = std::uint64_t;

/** A byte address in one of the simulated address spaces. */
using Addr = std::uint64_t;

/** Sentinel value meaning "never" / "not scheduled". */
inline constexpr Tick MaxTick = std::numeric_limits<Tick>::max();

/** Sentinel value for an invalid address. */
inline constexpr Addr InvalidAddr = std::numeric_limits<Addr>::max();

/** Size of an SRAM cache block and of a DRAM burst sub-block in bytes. */
inline constexpr std::uint32_t BlockBytes = 64;

/** Base-2 log of BlockBytes. */
inline constexpr std::uint32_t BlockShift = 6;

/** Size of an OS page (and DRAM cache frame) in bytes. */
inline constexpr std::uint32_t PageBytes = 4096;

/** Base-2 log of PageBytes. */
inline constexpr std::uint32_t PageShift = 12;

/** Number of 64-byte sub-blocks per 4KB page. */
inline constexpr std::uint32_t SubBlocksPerPage = PageBytes / BlockBytes;

/** A virtual or physical page/frame number. */
using PageNum = std::uint64_t;

/** Sentinel for an invalid page/frame number. */
inline constexpr PageNum InvalidPage =
    std::numeric_limits<PageNum>::max();

/** Extract the page number of an address. */
constexpr PageNum
pageOf(Addr addr)
{
    return addr >> PageShift;
}

/** Extract the byte offset within a page. */
constexpr std::uint32_t
pageOffset(Addr addr)
{
    return static_cast<std::uint32_t>(addr & (PageBytes - 1));
}

/** Extract the sub-block index (0..63) of an address within its page. */
constexpr std::uint32_t
subBlockOf(Addr addr)
{
    return pageOffset(addr) >> BlockShift;
}

/** Align an address down to its 64-byte block. */
constexpr Addr
blockAlign(Addr addr)
{
    return addr & ~static_cast<Addr>(BlockBytes - 1);
}

} // namespace nomad

#endif // NOMAD_SIM_TYPES_HH
