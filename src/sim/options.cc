#include "sim/options.hh"

#include <charconv>
#include <cstdlib>
#include <sstream>

#include "sim/logging.hh"

namespace vca {

std::optional<std::uint64_t>
parseU64(std::string_view text)
{
    // from_chars on an unsigned type takes digits only: no sign, no
    // leading space, and out-of-range instead of wrapping.
    std::uint64_t n = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, n);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return n;
}

void
Options::add(const std::string &name, const std::string &defaultValue,
             const std::string &help)
{
    opts_[name] = {defaultValue, defaultValue, help};
}

bool
Options::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);

        std::string key = arg;
        std::string value;
        bool haveValue = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            key = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            haveValue = true;
        }

        // --no-flag form.
        if (!haveValue && key.rfind("no-", 0) == 0 &&
            opts_.count(key.substr(3))) {
            opts_[key.substr(3)].value = "false";
            opts_[key.substr(3)].set = true;
            continue;
        }

        auto it = opts_.find(key);
        if (it == opts_.end()) {
            error_ = "unknown option --" + key;
            return false;
        }
        if (haveValue) {
            it->second.value = value;
            it->second.set = true;
            continue;
        }
        // Boolean flags may omit the value; otherwise take the next arg.
        if (it->second.defaultValue == "true" ||
            it->second.defaultValue == "false") {
            it->second.value = "true";
            it->second.set = true;
            continue;
        }
        if (i + 1 >= argc) {
            error_ = "option --" + key + " needs a value";
            return false;
        }
        it->second.value = argv[++i];
        it->second.set = true;
    }
    return true;
}

bool
Options::wasSet(const std::string &name) const
{
    auto it = opts_.find(name);
    if (it == opts_.end())
        panic("option '%s' was never registered", name.c_str());
    return it->second.set;
}

std::string
Options::get(const std::string &name) const
{
    auto it = opts_.find(name);
    if (it == opts_.end())
        panic("option '%s' was never registered", name.c_str());
    return it->second.value;
}

std::uint64_t
Options::getU64(const std::string &name) const
{
    const std::string v = get(name);
    if (const auto n = parseU64(v))
        return *n;
    fatal("invalid --%s='%s' (want an unsigned integer)", name.c_str(),
          v.c_str());
}

double
Options::getDouble(const std::string &name) const
{
    return std::strtod(get(name).c_str(), nullptr);
}

bool
Options::getBool(const std::string &name) const
{
    const std::string v = get(name);
    return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string
Options::usage(const std::string &program) const
{
    std::ostringstream os;
    os << "usage: " << program << " [options]\n\noptions:\n";
    for (const auto &[name, opt] : opts_) {
        os << "  --" << name;
        if (opt.defaultValue != "true" && opt.defaultValue != "false")
            os << "=<value>";
        os << "  (default: " << opt.defaultValue << ")\n      "
           << opt.help << "\n";
    }
    return os.str();
}

} // namespace vca
