#include "scheme_registry.hh"

#include "harden/diag.hh"

namespace nomad
{

SchemeRegistry &
SchemeRegistry::instance()
{
    static SchemeRegistry reg;
    return reg;
}

bool
SchemeRegistry::add(SchemeEntry entry)
{
    const SchemeKind kind = entry.kind;
    return entries_.emplace(kind, std::move(entry)).second;
}

const SchemeEntry *
SchemeRegistry::find(SchemeKind kind) const
{
    const auto it = entries_.find(kind);
    return it == entries_.end() ? nullptr : &it->second;
}

const SchemeEntry *
SchemeRegistry::findByName(const std::string &name) const
{
    const std::optional<SchemeKind> kind = schemeKindFromName(name);
    return kind ? find(*kind) : nullptr;
}

std::vector<const SchemeEntry *>
SchemeRegistry::all() const
{
    std::vector<const SchemeEntry *> out;
    out.reserve(entries_.size());
    for (const auto &[kind, entry] : entries_) {
        (void)kind;
        out.push_back(&entry);
    }
    return out;
}

std::string
SchemeRegistry::namesCsv() const
{
    std::string out;
    for (const auto &[kind, entry] : entries_) {
        (void)entry;
        if (!out.empty())
            out += ", ";
        out += schemeKindName(kind);
    }
    return out;
}

const SchemeEntry &
SchemeRegistry::entryFor(SchemeKind kind) const
{
    if (const SchemeEntry *entry = find(kind))
        return *entry;
    throw harden::SimError(
        harden::ErrorKind::ConfigError,
        std::string("scheme '") + schemeKindName(kind) +
            "' is not registered (registered: " + namesCsv() + ")");
}

SchemeKind
SchemeRegistry::parseNameOrThrow(const std::string &name) const
{
    if (const SchemeEntry *entry = findByName(name))
        return entry->kind;
    throw harden::SimError(
        harden::ErrorKind::ConfigError,
        "unknown scheme '" + name +
            "' (registered: " + namesCsv() + ")");
}

} // namespace nomad
