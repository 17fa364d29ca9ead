#include "scheme.hh"

#include <cctype>

namespace nomad
{

const char *
schemeKindName(SchemeKind k)
{
    const auto i = static_cast<std::size_t>(k);
    return i < std::size(SchemeKindNames) ? SchemeKindNames[i] : "?";
}

std::optional<SchemeKind>
schemeKindFromName(const std::string &name)
{
    auto lower = [](const std::string &s) {
        std::string out = s;
        for (char &c : out)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        return out;
    };
    const std::string want = lower(name);
    for (std::size_t i = 0; i < std::size(SchemeKindNames); ++i) {
        if (lower(SchemeKindNames[i]) == want)
            return static_cast<SchemeKind>(i);
    }
    return std::nullopt;
}

} // namespace nomad
