#ifndef IMC_COMMON_CLI_HPP
#define IMC_COMMON_CLI_HPP

/**
 * @file
 * Command-line parsing and the entry point shared by every bench and
 * example main. A tool declares the value flags and the switches it
 * reads; each may appear once and is optional. A value flag takes
 * "--flag value" or "--flag=value" and falls back to a default when
 * absent; a switch is a bare "--flag" that never consumes the next
 * argument. An unknown, positional or repeated argument, a value
 * flag without a value and a switch given one are ConfigErrors, and
 * reading a flag the tool did not declare is a LogicBug. Numeric
 * accessors parse strictly: a malformed value ("--reps abc",
 * "--alpha 0.3x") raises ConfigError instead of being silently
 * mangled by atoi/atof semantics.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace imc {

/** Parsed command line. */
class Cli {
  public:
    /**
     * Parse argv against the declared value @p flags and @p switches
     * (names without "--"). ConfigError naming the argument on an
     * unknown, positional or repeated one, on a value flag without a
     * value and on a switch with one; its message ends in a usage
     * line listing the declared names.
     */
    Cli(int argc, const char* const* argv,
        const std::vector<std::string>& flags,
        const std::vector<std::string>& switches = {});

    /** True when the value flag or switch appears. */
    bool has(const std::string& flag) const;

    /** Value of "--flag value", or @p def when absent; LogicBug on a
     *  switch. */
    std::string get(const std::string& flag,
                    const std::string& def) const;

    /** Integer-valued option; ConfigError on a malformed value. */
    int get_int(const std::string& flag, int def) const;

    /** Double-valued option; ConfigError on a malformed value. */
    double get_double(const std::string& flag, double def) const;

    /** 64-bit option (e.g. --seed); ConfigError on a malformed or
     *  negative value. */
    std::uint64_t get_u64(const std::string& flag,
                          std::uint64_t def) const;

    /** Split a comma-separated option into items; empty when absent.
     *  Empty tokens ("a,,b", trailing comma) are skipped. */
    std::vector<std::string> get_list(const std::string& flag) const;

    /** get_list() with every item parsed as by get_int(); empty when
     *  absent, ConfigError naming the flag on a malformed item. */
    std::vector<int> get_int_list(const std::string& flag) const;

    /** get_list() with every item parsed as by get_double(); empty
     *  when absent, ConfigError naming the flag on a malformed item. */
    std::vector<double> get_double_list(const std::string& flag) const;

  private:
    struct Option {
        std::string name;
        bool is_switch = false;
        bool present = false;
        std::string value;
    };

    /** The declared option @p flag; LogicBug when undeclared. */
    const Option& option(const std::string& flag) const;

    std::vector<Option> options_;
};

/**
 * The entry point of the bench and example mains. Parses argv against
 * @p flags and @p switches plus the obs and fault session flags
 * (--metrics-out, --trace-out, --fault-seed, --fault-spec and the
 * --metrics switch), opens both sessions and returns body(cli). An
 * error ends the run with one "<tool>: <message>" line on stderr,
 * <tool> being argv[0]'s file name: a ConfigError (a bad flag, value
 * or configuration) exits 2 and any other imc::Error exits 1. A parse
 * error adds the usage line.
 */
int tool_main(int argc, const char* const* argv,
              std::vector<std::string> flags,
              const std::function<int(const Cli&)>& body,
              std::vector<std::string> switches = {});

} // namespace imc

#endif // IMC_COMMON_CLI_HPP
