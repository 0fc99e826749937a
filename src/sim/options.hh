/**
 * @file
 * Minimal command-line option parsing for the simulator tools.
 *
 * Accepts --key=value and --key value forms plus boolean flags
 * (--flag / --no-flag). Unknown options are errors; a usage table is
 * generated from the registered options.
 */

#ifndef VCA_SIM_OPTIONS_HH
#define VCA_SIM_OPTIONS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vca {

/**
 * Parse an unsigned decimal integer: one or more digits and nothing
 * else (no sign, space or base prefix) that fits in 64 bits; nullopt
 * otherwise. Every unsigned integer the simulator reads from a flag,
 * an environment variable or a spec string goes through here, so
 * "-1" never wraps and "4x" or "abc" never reads as a number.
 */
std::optional<std::uint64_t> parseU64(std::string_view text);

class Options
{
  public:
    /** Register an option with a default value and help text. */
    void add(const std::string &name, const std::string &defaultValue,
             const std::string &help);

    /**
     * Parse argv. Returns false (and fills error()) on unknown options
     * or missing values. Non-option arguments land in positional().
     */
    bool parse(int argc, const char *const *argv);

    std::string get(const std::string &name) const;
    /** The value through parseU64(); fatal() (FatalError) naming the
     *  flag when it is not an unsigned decimal. */
    std::uint64_t getU64(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }
    const std::string &error() const { return error_; }

    /** True when the option appeared on the command line (in any
     *  form), regardless of whether it restates the default. */
    bool wasSet(const std::string &name) const;

    /** Formatted usage listing of all registered options. */
    std::string usage(const std::string &program) const;

  private:
    struct Opt
    {
        std::string value;
        std::string defaultValue;
        std::string help;
        bool set = false;
    };

    std::map<std::string, Opt> opts_;
    std::vector<std::string> positional_;
    std::string error_;
};

} // namespace vca

#endif // VCA_SIM_OPTIONS_HH
