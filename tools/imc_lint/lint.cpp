#include "internal.hpp"
#include "lint.hpp"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>

/**
 * @file
 * The driver core: file classification, suppression handling, the
 * deterministic tree walk, and phase 1 (index_content). Rules live in
 * rules.cpp and the phase-2 project passes in project.cpp.
 */

namespace imc::lint {

namespace {

namespace fs = std::filesystem;

bool
lintable(const fs::path& p)
{
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".cpp" || ext == ".h" ||
           ext == ".cc";
}

bool
skipped_dir(const std::string& name)
{
    return name == "build" || name == ".git" ||
           name == "lint_fixtures" || name == "CMakeFiles";
}

void
sort_diags(std::vector<Diagnostic>& diags)
{
    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
}

} // namespace

namespace detail {

Category
categorize(const std::string& path)
{
    if (path.rfind("bench/", 0) == 0)
        return Category::Bench;
    if (path.rfind("examples/", 0) == 0)
        return Category::Example;
    if (path.rfind("tests/", 0) == 0)
        return Category::Test;
    if (path.rfind("tools/", 0) == 0)
        return Category::Tool;
    // src/ and anything unrecognized get the strictest treatment.
    return Category::Library;
}

std::vector<std::string>
split_lines(const std::string& content)
{
    std::vector<std::string> lines;
    std::string cur;
    for (const char c : content) {
        if (c == '\n') {
            if (!cur.empty() && cur.back() == '\r')
                cur.pop_back();
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

std::string
trim(const std::string& s)
{
    const std::size_t a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    const std::size_t b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

/**
 * Parse suppressions out of the comment stream. A trailing comment
 * covers its own line; a comment-only line covers the next line that
 * carries code (so multi-line justification comments chain
 * naturally). Malformed directives become lint-suppression
 * diagnostics instead of silently suppressing nothing.
 */
ParsedSuppressions
parse_suppressions(const FileContext& ctx)
{
    ParsedSuppressions out;
    // Lines that carry at least one code token, for own-line
    // comment target resolution.
    std::vector<int> code_lines;
    code_lines.reserve(ctx.lex.tokens.size());
    for (const Token& t : ctx.lex.tokens)
        if (code_lines.empty() || code_lines.back() != t.line)
            code_lines.push_back(t.line);

    for (const Comment& c : ctx.lex.comments) {
        const std::size_t pos = c.text.find("imc-lint:");
        if (pos == std::string::npos)
            continue;
        auto malformed = [&](const std::string& why) {
            out.meta.push_back({"lint-suppression", ctx.path, c.line,
                                "malformed suppression: " + why});
        };
        const std::string rest = trim(c.text.substr(pos + 9));
        if (rest.rfind("allow", 0) != 0) {
            malformed("expected 'allow(<rule>): <justification>'");
            continue;
        }
        const std::size_t open = rest.find('(');
        const std::size_t close = rest.find(')');
        if (open == std::string::npos || close == std::string::npos ||
            close < open) {
            malformed("expected 'allow(<rule>): <justification>'");
            continue;
        }
        SuppressionInfo sup;
        std::stringstream list(rest.substr(open + 1, close - open - 1));
        std::string rule;
        bool rules_ok = true;
        while (std::getline(list, rule, ',')) {
            rule = trim(rule);
            if (rule_descriptions().count(rule) == 0) {
                malformed("unknown rule '" + rule + "'");
                rules_ok = false;
                break;
            }
            sup.rules.push_back(rule);
        }
        if (!rules_ok)
            continue;
        if (sup.rules.empty()) {
            malformed("empty rule list");
            continue;
        }
        // Justification: non-empty text after "):".
        const std::string after = trim(rest.substr(close + 1));
        if (after.empty() || after[0] != ':' ||
            trim(after.substr(1)).empty()) {
            malformed("missing justification after allow(" +
                      sup.rules.front() +
                      "): every suppression must say WHY the "
                      "violation is acceptable here");
            continue;
        }
        if (c.own_line) {
            // Covers the next code-bearing line.
            const auto it = std::upper_bound(code_lines.begin(),
                                             code_lines.end(), c.line);
            sup.target_line = it == code_lines.end() ? c.line : *it;
        } else {
            sup.target_line = c.line;
        }
        out.sups.push_back(std::move(sup));
    }
    return out;
}

void
apply_suppressions(const std::vector<SuppressionInfo>& sups,
                   std::vector<Diagnostic>& diags)
{
    diags.erase(
        std::remove_if(
            diags.begin(), diags.end(),
            [&](const Diagnostic& d) {
                if (d.rule == "lint-suppression")
                    return false; // the audit trail itself
                for (const SuppressionInfo& s : sups) {
                    if (d.line != s.target_line)
                        continue;
                    if (std::find(s.rules.begin(), s.rules.end(),
                                  d.rule) != s.rules.end())
                        return true;
                }
                return false;
            }),
        diags.end());
}

bool
suppressed(const FileIndex& idx, const Diagnostic& d)
{
    if (d.rule == "lint-suppression")
        return false;
    for (const SuppressionInfo& s : idx.suppressions) {
        if (d.line != s.target_line)
            continue;
        if (std::find(s.rules.begin(), s.rules.end(), d.rule) !=
            s.rules.end())
            return true;
    }
    return false;
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace detail

FileIndex
index_content(const std::string& path, const std::string& content,
              const std::string& sibling_header_content,
              const Options& opts)
{
    FileContext ctx;
    ctx.path = path;
    ctx.category = detail::categorize(path);
    ctx.lines = detail::split_lines(content);
    ctx.lex = lex(content);
    if (!sibling_header_content.empty())
        ctx.extra_unordered_names =
            unordered_decl_names_in(sibling_header_content);

    FileIndex idx;
    idx.path = path;
    idx.category = ctx.category;
    idx.includes = detail::extract_includes(ctx.lines);
    idx.unordered_names = unordered_decl_names_in(content);
    idx.fault_probes = detail::extract_fault_probes(ctx.lex, path);
    idx.obs_uses = detail::extract_obs_uses(ctx.lex, path);
    if (path == "src/common/fault.hpp")
        idx.fault_sites =
            detail::extract_registry_array(ctx.lex, "kFaultSites");
    if (path == "src/common/obs.hpp")
        idx.obs_names =
            detail::extract_registry_array(ctx.lex, "kObsNames");

    std::vector<Diagnostic> diags = run_rules(ctx, opts);
    detail::ParsedSuppressions ps = detail::parse_suppressions(ctx);
    detail::apply_suppressions(ps.sups, diags);
    diags.insert(diags.end(), ps.meta.begin(), ps.meta.end());
    sort_diags(diags);
    idx.suppressions = std::move(ps.sups);
    idx.diags = std::move(diags);
    return idx;
}

std::vector<Diagnostic>
lint_content(const std::string& path, const std::string& content,
             const std::string& sibling_header_content,
             const Options& opts)
{
    return index_content(path, content, sibling_header_content, opts)
        .diags;
}

std::vector<Diagnostic>
lint_content(const std::string& path, const std::string& content,
             const Options& opts)
{
    return lint_content(path, content, std::string(), opts);
}

std::vector<std::string>
lintable_files(const std::string& root_dir,
               const std::vector<std::string>& roots)
{
    const fs::path root = root_dir.empty() ? fs::path(".")
                                           : fs::path(root_dir);
    std::vector<fs::path> files;
    for (const std::string& r : roots) {
        fs::path p = fs::path(r).is_absolute() ? fs::path(r)
                                               : root / r;
        if (fs::is_regular_file(p)) {
            files.push_back(p); // explicit files always lint
            continue;
        }
        if (!fs::is_directory(p))
            continue;
        fs::recursive_directory_iterator it(p), end;
        for (; it != end; ++it) {
            if (it->is_directory() &&
                skipped_dir(it->path().filename().string())) {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && lintable(it->path()))
                files.push_back(it->path());
        }
    }
    std::vector<std::string> rel;
    rel.reserve(files.size());
    for (const fs::path& f : files)
        rel.push_back(fs::relative(f, root).generic_string());
    // Deterministic report order regardless of directory layout.
    std::sort(rel.begin(), rel.end());
    rel.erase(std::unique(rel.begin(), rel.end()), rel.end());
    return rel;
}

} // namespace imc::lint
