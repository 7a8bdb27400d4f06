#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"

namespace imc {

namespace {

// Numeric options parse strictly: the whole value must be one
// well-formed number, otherwise ConfigError. The pre-strict parser
// used atoi/atof, which silently turned "--reps abc" into 0 and
// "--alpha 0.3x" into 0.3 — corrupted experiments instead of a
// loud failure.

/** ConfigError naming the flag and the offending value. */
[[noreturn]] void
bad_value(const std::string& flag, const std::string& value,
          const char* expected)
{
    throw ConfigError("--" + flag + ": expected " + expected +
                      ", got '" + value + "'");
}

int
parse_int(const std::string& flag, const std::string& v)
{
    errno = 0;
    char* end = nullptr;
    // imc-lint: allow(banned-number-parse): this IS the strict
    // parser the rule points everyone at — endptr + errno checked,
    // trailing garbage rejected, errors name the flag.
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE)
        bad_value(flag, v, "an integer");
    if (parsed < std::numeric_limits<int>::min() ||
        parsed > std::numeric_limits<int>::max())
        bad_value(flag, v, "an int-range integer");
    return static_cast<int>(parsed);
}

double
parse_double(const std::string& flag, const std::string& v)
{
    errno = 0;
    char* end = nullptr;
    // imc-lint: allow(banned-number-parse): this IS the strict
    // parser the rule points everyone at — endptr + errno checked,
    // trailing garbage rejected, errors name the flag.
    const double parsed = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE)
        bad_value(flag, v, "a number");
    return parsed;
}

/** argv[0]'s file name: the name a tool reports errors under. */
std::string
tool_name(int argc, const char* const* argv)
{
    const std::string path = argc > 0 ? argv[0] : "";
    // npos + 1 wraps to 0: a bare name is kept whole.
    return path.substr(path.rfind('/') + 1);
}

} // namespace

Cli::Cli(int argc, const char* const* argv,
         const std::vector<std::string>& flags,
         const std::vector<std::string>& switches)
{
    // Every argument error ends in the usage line.
    std::string usage = "\nusage: " + tool_name(argc, argv);
    for (const auto& flag : flags)
        options_.push_back({flag, false, false, ""});
    for (const auto& flag : switches)
        options_.push_back({flag, true, false, ""});
    for (const auto& o : options_)
        usage += " [--" + o.name + "]";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            throw ConfigError("unexpected argument '" + arg + "'" + usage);
        std::string key = arg.substr(2);
        const auto eq = key.find('=');
        if (eq != std::string::npos)
            key.resize(eq);
        const auto it = std::find_if(
            options_.begin(), options_.end(),
            [&](const Option& o) { return o.name == key; });
        if (it == options_.end())
            throw ConfigError("unknown flag '--" + key + "'" + usage);
        if (it->present)
            throw ConfigError("repeated flag '--" + key + "'" + usage);
        it->present = true;
        if (it->is_switch) {
            if (eq != std::string::npos)
                throw ConfigError("switch '--" + key +
                                  "' takes no value" + usage);
            continue;
        }
        // "--flag=value" binds inline; "--flag value" consumes the
        // next argument unless it is itself a flag.
        if (eq != std::string::npos)
            it->value = arg.substr(eq + 3);
        else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0)
            it->value = argv[++i];
        if (it->value.empty())
            throw ConfigError("flag '--" + key + "' needs a value" +
                              usage);
    }
}

const Cli::Option&
Cli::option(const std::string& flag) const
{
    for (const auto& o : options_) {
        if (o.name == flag)
            return o;
    }
    throw LogicBug("flag '--" + flag + "' is read but not declared");
}

bool
Cli::has(const std::string& flag) const
{
    return option(flag).present;
}

std::string
Cli::get(const std::string& flag, const std::string& def) const
{
    const Option& o = option(flag);
    if (o.is_switch)
        throw LogicBug("switch '--" + flag + "' is read as a value");
    return o.present ? o.value : def;
}

int
Cli::get_int(const std::string& flag, int def) const
{
    const std::string v = get(flag, "");
    return v.empty() ? def : parse_int(flag, v);
}

double
Cli::get_double(const std::string& flag, double def) const
{
    const std::string v = get(flag, "");
    return v.empty() ? def : parse_double(flag, v);
}

std::uint64_t
Cli::get_u64(const std::string& flag, std::uint64_t def) const
{
    const std::string v = get(flag, "");
    if (v.empty())
        return def;
    if (v[0] == '-')
        bad_value(flag, v, "a non-negative integer");
    errno = 0;
    char* end = nullptr;
    // imc-lint: allow(banned-number-parse): this IS the strict
    // parser the rule points everyone at — endptr + errno checked,
    // trailing garbage rejected, errors name the flag.
    const auto parsed = std::strtoull(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE)
        bad_value(flag, v, "a non-negative integer");
    return static_cast<std::uint64_t>(parsed);
}

std::vector<std::string>
Cli::get_list(const std::string& flag) const
{
    std::vector<std::string> out;
    const std::string v = get(flag, "");
    std::size_t pos = 0;
    // Empty tokens ("a,,b", trailing commas) are skipped rather than
    // forwarded: every consumer treats items as names, and an empty
    // name was only ever a silent lookup failure downstream.
    while (pos <= v.size()) {
        const std::size_t comma = v.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? v.size() : comma;
        if (end > pos)
            out.push_back(v.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

std::vector<int>
Cli::get_int_list(const std::string& flag) const
{
    std::vector<int> out;
    for (const auto& item : get_list(flag))
        out.push_back(parse_int(flag, item));
    return out;
}

std::vector<double>
Cli::get_double_list(const std::string& flag) const
{
    std::vector<double> out;
    for (const auto& item : get_list(flag))
        out.push_back(parse_double(flag, item));
    return out;
}

int
tool_main(int argc, const char* const* argv,
          std::vector<std::string> flags,
          const std::function<int(const Cli&)>& body,
          std::vector<std::string> switches)
{
    const std::string tool = tool_name(argc, argv);
    flags.insert(flags.end(),
                 {"metrics-out", "trace-out", "fault-seed", "fault-spec"});
    switches.emplace_back("metrics");
    try {
        const Cli cli(argc, argv, flags, switches);
        const obs::Session obs_session(cli);
        const fault::Session fault_session(cli);
        return body(cli);
    } catch (const ConfigError& e) {
        std::cerr << tool << ": " << e.what() << '\n';
        return 2;
    } catch (const Error& e) {
        std::cerr << tool << ": " << e.what() << '\n';
        return 1;
    }
}

} // namespace imc
