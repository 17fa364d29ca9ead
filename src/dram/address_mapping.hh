/**
 * @file
 * Physical-address-to-DRAM-coordinate decoding.
 *
 * Addresses are sliced, low to high, into the block offset, one 128B
 * column bit, channel, bank group, bank, the rest of the column, rank
 * and row. Sequential streams alternate bank groups every two blocks
 * (hiding tCCD_L, as real controllers do) while a 4KB page's blocks
 * stay inside one row per bank (high row-buffer locality for page
 * copies).
 */

#ifndef NOMAD_DRAM_ADDRESS_MAPPING_HH
#define NOMAD_DRAM_ADDRESS_MAPPING_HH

#include <cstdint>

#include "dram/timing.hh"
#include "sim/types.hh"

namespace nomad
{

/** Decoded DRAM coordinates of one 64-byte block. */
struct DramCoord
{
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bankGroup = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
    std::uint64_t column = 0; ///< In units of 64-byte blocks.

    /** Flat bank index within the rank. */
    std::uint32_t
    flatBank(const DramTiming &t) const
    {
        return bankGroup * t.banksPerGroup + bank;
    }
};

/**
 * Decode @p addr into coordinates for device @p t, whose rows must
 * hold an even number of blocks.
 */
DramCoord decodeAddress(Addr addr, const DramTiming &t);

} // namespace nomad

#endif // NOMAD_DRAM_ADDRESS_MAPPING_HH
