/**
 * @file
 * A minimal INI-style configuration reader.
 *
 * Sections and keys are flattened into dotted names ("dram.hbm_channels").
 * Typed getters return a caller-supplied default when a key is absent and
 * fatal() on malformed values, so configuration mistakes fail loudly.
 */

#ifndef NOMAD_SIM_CONFIG_HH
#define NOMAD_SIM_CONFIG_HH

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <type_traits>

namespace nomad
{

/** Flat key/value configuration with INI-file parsing. */
class Config
{
  public:
    Config() = default;

    /** Parse an INI-style file; fatal() if the file cannot be opened. */
    static Config fromFile(const std::string &path);

    /** Parse INI-style text. */
    static Config fromString(const std::string &text);

    /** One option a command line accepts. */
    struct Option
    {
        const char *name; ///< Spelled without the leading "--".
        bool takesValue;  ///< `--name value` consumes the next arg.
    };

    /**
     * Parse a command line that accepts @p options:
     *
     *   --key=value   -> entry "key" = "value"
     *   --key value   -> the same, when @p options says key takes a
     *                    value (fatal when no argument follows)
     *   --flag        -> entry "flag" = "true"
     *   --config=FILE -> entries of FILE merge in (CLI still wins);
     *                    `--config FILE` works too
     *
     * argv[0] is skipped. Keys keep their spelling ("stats-json").
     * A key that @p options does not list, on the command line or in
     * a --config file, is fatal: "unknown option --KEY (see DOC)",
     * with @p doc naming the CLI's documentation.
     */
    static Config fromArgs(int argc, char **argv,
                           std::initializer_list<Option> options,
                           const char *doc);

    /** Set or override one entry. */
    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;

    /**
     * The value of @p key as a @p T, or @p def when absent. A sign,
     * trailing junk, or a value @p T cannot hold is fatal, naming the
     * key, so `getUint<std::uint32_t>("cores", 0)` can never wrap.
     */
    template <std::unsigned_integral T = std::uint64_t>
    T
    getUint(const std::string &key, std::type_identity_t<T> def) const
    {
        return static_cast<T>(
            uintIn(key, nullptr, def, std::numeric_limits<T>::max()));
    }

    /** getUint() whose default is environment variable @p env when
     *  it is set (checked like a config value), @p def otherwise. */
    template <std::unsigned_integral T = std::uint64_t>
    T
    getUintOrEnv(const std::string &key, const char *env,
                 std::type_identity_t<T> def) const
    {
        return static_cast<T>(
            uintIn(key, env, def, std::numeric_limits<T>::max()));
    }
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    const std::map<std::string, std::string> &entries() const
    {
        return entries_;
    }

  private:
    /** getUintOrEnv() with @p env optional, for values up to @p max. */
    std::uint64_t uintIn(const std::string &key, const char *env,
                         std::uint64_t def, std::uint64_t max) const;

    std::map<std::string, std::string> entries_;
};

} // namespace nomad

#endif // NOMAD_SIM_CONFIG_HH
