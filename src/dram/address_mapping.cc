#include "address_mapping.hh"

namespace nomad
{

namespace
{

/** Pop @p count values' worth of low bits from @p addr. */
std::uint64_t
takeField(Addr &addr, std::uint64_t count)
{
    if (count <= 1)
        return 0;
    if ((count & (count - 1)) == 0) {
        // Every practical geometry is a power of two; shift/mask
        // avoids two hardware divides per field on the decode path.
        const std::uint64_t field = addr & (count - 1);
        addr >>= __builtin_ctzll(count);
        return field;
    }
    const std::uint64_t field = addr % count;
    addr /= count;
    return field;
}

} // namespace

DramCoord
decodeAddress(Addr addr, const DramTiming &t)
{
    DramCoord c;
    Addr a = addr >> BlockShift;
    const std::uint64_t co_low = takeField(a, 2);
    c.channel = takeField(a, t.channels);
    c.bankGroup = takeField(a, t.bankGroups);
    c.bank = takeField(a, t.banksPerGroup);
    const std::uint64_t co_high = takeField(a, t.blocksPerRow() / 2);
    c.column = (co_high << 1) | co_low;
    c.rank = takeField(a, t.ranksPerChannel);
    c.row = a;
    return c;
}

} // namespace nomad
