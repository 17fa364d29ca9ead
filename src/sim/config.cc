#include "config.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "logging.hh"

namespace nomad
{

namespace
{

/** Strip leading/trailing whitespace. */
std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** @p text as an unsigned integer up to @p max in any base
 *  std::stoull reads; fatal, naming @p what, on anything else. */
std::uint64_t
parseUint(const std::string &what, const std::string &text,
          std::uint64_t max)
{
    std::size_t pos = 0;
    std::uint64_t v = 0;
    try {
        v = std::stoull(text, &pos, 0);
    } catch (const std::exception &) {
        fatal(what, ": bad integer '", text, "'");
    }
    fatal_if(pos != text.size(), what, ": trailing junk in integer '",
             text, "'");
    // std::stoull reads "-1" as 2^64 - 1 instead of failing.
    fatal_if(trim(text).starts_with('-'), what, ": bad integer '", text,
             "'");
    fatal_if(v > max, what, ": ", text, " is out of range (max ", max,
             ")");
    return v;
}

} // namespace

Config
Config::fromFile(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open config file '", path, "'");
    std::ostringstream oss;
    oss << in.rdbuf();
    return fromString(oss.str());
}

Config
Config::fromString(const std::string &text)
{
    Config cfg;
    std::istringstream in(text);
    std::string line;
    std::string section;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments introduced by '#' or ';'.
        const auto comment = line.find_first_of("#;");
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            fatal_if(line.back() != ']', "config line ", line_no,
                     ": unterminated section header");
            section = trim(line.substr(1, line.size() - 2));
            continue;
        }
        const auto eq = line.find('=');
        fatal_if(eq == std::string::npos, "config line ", line_no,
                 ": expected 'key = value'");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        fatal_if(key.empty(), "config line ", line_no, ": empty key");
        if (!section.empty())
            key = section + "." + key;
        cfg.entries_[key] = value;
    }
    return cfg;
}

Config
Config::fromArgs(int argc, char **argv,
                 std::initializer_list<Option> options, const char *doc)
{
    auto lookup = [&](const std::string &key) -> const Option & {
        for (const Option &opt : options) {
            if (key == opt.name)
                return opt;
        }
        fatal("unknown option --", key, " (see ", doc, ")");
    };
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        fatal_if(arg.rfind("--", 0) != 0, "unexpected argument '", arg,
                 "'");
        const auto eq = arg.find('=');
        const std::string key = arg.substr(
            2, eq == std::string::npos ? std::string::npos : eq - 2);
        fatal_if(key.empty(), "malformed option '", arg, "'");
        const bool takes_value = key == "config" || lookup(key).takesValue;
        std::string value = "true";
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
        } else if (takes_value) {
            fatal_if(i + 1 == argc, "option --", key, " needs a value");
            value = argv[++i];
        }
        if (key == "config") {
            // File entries merge in underneath explicit CLI options
            // and must name options this CLI accepts.
            const Config file = fromFile(value);
            for (const auto &[k, v] : file.entries()) {
                lookup(k);
                cfg.entries_.emplace(k, v);
            }
            continue;
        }
        cfg.entries_[key] = value;
    }
    return cfg;
}

void
Config::set(const std::string &key, const std::string &value)
{
    entries_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return entries_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    const auto it = entries_.find(key);
    return it == entries_.end() ? def : it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    try {
        std::size_t pos = 0;
        const auto v = std::stoll(it->second, &pos, 0);
        fatal_if(pos != it->second.size(), "config key '", key,
                 "': trailing junk in integer '", it->second, "'");
        return v;
    } catch (const std::exception &) {
        fatal("config key '", key, "': bad integer '", it->second, "'");
    }
}

std::uint64_t
Config::uintIn(const std::string &key, const char *env, std::uint64_t def,
               std::uint64_t max) const
{
    if (const char *s = env ? std::getenv(env) : nullptr)
        def = parseUint(std::string("environment variable ") + env, s,
                        max);
    const auto it = entries_.find(key);
    return it == entries_.end()
               ? def
               : parseUint("config key '" + key + "'", it->second, max);
}

double
Config::getDouble(const std::string &key, double def) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    try {
        std::size_t pos = 0;
        const auto v = std::stod(it->second, &pos);
        fatal_if(pos != it->second.size(), "config key '", key,
                 "': trailing junk in number '", it->second, "'");
        return v;
    } catch (const std::exception &) {
        fatal("config key '", key, "': bad number '", it->second, "'");
    }
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("config key '", key, "': bad boolean '", v, "'");
}

} // namespace nomad
