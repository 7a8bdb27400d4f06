#ifndef IMC_COMMON_CLI_HPP
#define IMC_COMMON_CLI_HPP

/**
 * @file
 * Minimal command-line option parsing shared by the benchmark
 * harnesses and examples. Supports "--flag value", "--flag=value",
 * and bare "--flag" switches; everything is optional with a default.
 * Numeric accessors parse strictly: a malformed value ("--reps abc",
 * "--alpha 0.3x") raises ConfigError instead of being silently
 * mangled by atoi/atof semantics.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace imc {

/** Parsed command line. */
class Cli {
  public:
    /** Parse argv; unknown flags are kept and queryable. */
    Cli(int argc, const char* const* argv);

    /** True when the switch appears (with or without a value). */
    bool has(const std::string& flag) const;

    /** Value of "--flag value", or @p def when absent. */
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
    std::vector<std::pair<std::string, std::string>> options_;
};

} // namespace imc

#endif // IMC_COMMON_CLI_HPP
