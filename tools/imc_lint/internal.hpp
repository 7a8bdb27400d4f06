#ifndef IMC_TOOLS_IMC_LINT_INTERNAL_HPP
#define IMC_TOOLS_IMC_LINT_INTERNAL_HPP

/**
 * @file
 * Internal seams between the analyzer's translation units (driver,
 * rules, project passes). Nothing here is part of the public
 * lint.hpp surface.
 */

#include <string>
#include <vector>

#include "lint.hpp"

namespace imc::lint::detail {

// lint.cpp — classification, suppressions, file IO.
Category categorize(const std::string& path);
std::vector<std::string> split_lines(const std::string& content);
std::string trim(const std::string& s);

struct ParsedSuppressions {
    std::vector<SuppressionInfo> sups;
    std::vector<Diagnostic> meta; ///< lint-suppression findings
};
ParsedSuppressions parse_suppressions(const FileContext& ctx);
void apply_suppressions(const std::vector<SuppressionInfo>& sups,
                        std::vector<Diagnostic>& diags);
/** True when @p idx carries a suppression covering @p d. */
bool suppressed(const FileIndex& idx, const Diagnostic& d);
std::string read_file(const std::string& path);

// rules.cpp — token-stream extraction for the index.
std::vector<IncludeRef>
extract_includes(const std::vector<std::string>& lines);
std::vector<FaultProbe> extract_fault_probes(const LexResult& lex,
                                             const std::string& path);
std::vector<ObsUse> extract_obs_uses(const LexResult& lex,
                                     const std::string& path);
std::vector<RegistryEntry>
extract_registry_array(const LexResult& lex, const char* array_name);

} // namespace imc::lint::detail

#endif // IMC_TOOLS_IMC_LINT_INTERNAL_HPP
