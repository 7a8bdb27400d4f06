#ifndef IMC_TOOLS_IMC_LINT_LINT_HPP
#define IMC_TOOLS_IMC_LINT_LINT_HPP

/**
 * @file
 * imc-lint — the project-invariant static analyzer.
 *
 * The compiler checks types; this tool checks the *project's*
 * contracts, the ones PR review used to check by convention. Since
 * v2 it is a two-phase, whole-tree analyzer rather than a per-file
 * rule runner:
 *
 *   phase 1  every file under the linted roots is lexed once into a
 *            FileIndex — include directives, unordered-container
 *            declarations, IMC_FAULT_PROBE site literals, IMC_OBS_*
 *            name patterns, registry arrays, suppression comments,
 *            and the per-file rule findings.
 *
 *   phase 2  cross-file passes run over the merged index: the
 *            project include graph (cycles + the layering policy in
 *            tools/imc_lint/layers.txt), and used⇔registered
 *            cross-checks of fault-probe sites against
 *            src/common/fault.hpp's kFaultSites and of obs metric
 *            names against src/common/obs.hpp's kObsNames.
 *
 * Per-file rules:
 *
 *  - determinism-rand        no wall-clock / libc randomness in code
 *                            that can feed recorded figures
 *  - determinism-taint       values sourced from unordered-container
 *                            iteration, pointer-to-integer casts,
 *                            'this' hashing, or thread ids must not
 *                            flow into digests, serialized output,
 *                            LatencyRecorder, or RNG fork names
 *  - banned-number-parse     no atoi/atof/strtol/stoi-family parsing
 *                            (use the strict Cli / serialize paths)
 *  - banned-printf           no printf-family output in library code
 *  - banned-new-delete       no naked new/delete
 *  - config-error-context    throw ConfigError must embed the
 *                            offending flag or value
 *  - header-guard            guards named IMC_<PATH>_HPP, closing
 *                            #endif annotated
 *  - include-order           own header, then <system>, then
 *                            "project" — no interleaving
 *  - obs-gate                obs recording only via IMC_OBS_* macros
 *                            (keeps IMC_OBS_DISABLED zero-cost)
 *  - fault-gate              fault probes only via IMC_FAULT_*
 *                            macros (keeps IMC_FAULT_DISABLED
 *                            zero-cost)
 *  - fault-site              IMC_FAULT_PROBE sites must be string
 *                            literals (phase 1) drawn from the
 *                            registered site table (phase 2)
 *  - lint-suppression        suppressions must parse, name a known
 *                            rule, and carry a justification
 *
 * Cross-file rules (phase 2):
 *
 *  - include-cycle           the project include graph must be a DAG
 *  - layer-violation         include edges must respect the layering
 *                            policy (layers.txt); tools/ may reach
 *                            src/ only through declared public
 *                            headers
 *  - layer-policy            layers.txt itself must parse
 *  - fault-site-dead         every registered fault site must be
 *                            probed somewhere
 *  - obs-name                every IMC_OBS_* name in src/ must be
 *                            registered in kObsNames
 *  - obs-name-dead           every registered obs name must be
 *                            recorded somewhere
 *
 * A violation is silenced with a suppression comment on the same
 * line or on a comment-only line directly above, and MUST carry a
 * justification after the closing parenthesis:
 *
 *     // imc-lint: allow(banned-printf): snprintf is the checked
 *     // float formatter; output goes to a sized local buffer.
 *
 * Unjustified or unknown-rule suppressions are themselves
 * diagnostics, so the suppression surface stays auditable.
 * Suppressions apply to cross-file findings too (at the line the
 * finding is reported on — the #include edge, the probe, or the
 * registry entry).
 */

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lexer.hpp"

namespace imc::lint {

/** Where a file sits in the tree; decides which rules apply. */
enum class Category {
    Library, ///< src/ — strictest: all rules
    Bench,   ///< bench/ — figure harnesses (may print)
    Example, ///< examples/ — user-facing mains (may print)
    Test,    ///< tests/ — may exercise banned APIs deliberately
    Tool,    ///< tools/ — the lint tool itself (dogfooded)
};

/** One finding. */
struct Diagnostic {
    std::string rule;
    std::string path; ///< root-relative, '/' separators
    int line = 0;
    std::string message;

    bool operator==(const Diagnostic& o) const
    {
        return rule == o.rule && path == o.path && line == o.line &&
               message == o.message;
    }
};

/** Everything a rule sees about one translation unit. */
struct FileContext {
    std::string path; ///< root-relative, '/' separators
    Category category = Category::Library;
    std::vector<std::string> lines; ///< raw lines, 0-based storage
    LexResult lex;
    /**
     * Names of unordered_map/unordered_set variables declared in the
     * sibling header (same stem), so a .cpp iterating a member the
     * .hpp declares is still caught.
     */
    std::set<std::string> extra_unordered_names;
};

struct Options {
    /** Rules disabled wholesale (e.g. from --allow on the CLI). */
    std::set<std::string> disabled_rules;
};

// --- Phase 1: the per-file index --------------------------------------

/** One #include directive. */
struct IncludeRef {
    int line = 0;
    std::string target; ///< as written between the delimiters
    bool angle = false; ///< <system> vs "project"
};

/** One IMC_FAULT_PROBE site argument. */
struct FaultProbe {
    int line = 0;
    std::string site; ///< empty when not a string literal
    bool literal = false;
};

/** One IMC_OBS_* name argument, normalized to a pattern. */
struct ObsUse {
    int line = 0;
    /**
     * The literal fragments of the name expression joined with one
     * '*' per dynamic fragment: a plain literal indexes as itself,
     * `"fault.injected." + site` as "fault.injected.*", and a fully
     * dynamic name as "*".
     */
    std::string pattern;
};

/** One entry of a kFaultSites / kObsNames registry array. */
struct RegistryEntry {
    int line = 0;
    std::string name;
};

/** One parsed, valid allow(<rules>) suppression. */
struct SuppressionInfo {
    std::vector<std::string> rules;
    int target_line = 0;
};

/** The phase-1 product for one file. */
struct FileIndex {
    std::string path;
    Category category = Category::Library;
    std::vector<IncludeRef> includes;
    /** Unordered-container names declared here (exported to the
     * sibling .cpp's taint pass). */
    std::set<std::string> unordered_names;
    std::vector<FaultProbe> fault_probes;
    std::vector<ObsUse> obs_uses;
    /** kFaultSites entries (populated only for src/common/fault.hpp). */
    std::vector<RegistryEntry> fault_sites;
    /** kObsNames entries (populated only for src/common/obs.hpp). */
    std::vector<RegistryEntry> obs_names;
    std::vector<SuppressionInfo> suppressions;
    /** Per-file findings, suppressions already applied (including
     * the lint-suppression meta findings). */
    std::vector<Diagnostic> diags;
};

/**
 * Phase 1 for one file: lex, run the per-file rules, apply
 * suppressions, and extract every cross-file fact.
 */
FileIndex index_content(const std::string& path,
                        const std::string& content,
                        const std::string& sibling_header_content,
                        const Options& opts);

// --- Phase 2: the project analysis ------------------------------------

/** Parsed layering policy (tools/imc_lint/layers.txt). */
struct LayerPolicy {
    struct Layer {
        std::string name;
        std::string prefix; ///< path prefix, e.g. "src/common/"
    };
    std::vector<Layer> layers; ///< declaration order
    /** layer -> layers it may include (itself is always allowed). */
    std::map<std::string, std::set<std::string>> allowed;
    /** src/ headers tools/ may include. */
    std::set<std::string> public_headers;
    /** Parse errors (rule layer-policy). */
    std::vector<Diagnostic> errors;
};

/** Parse @p text; @p path is used for error diagnostics. */
LayerPolicy parse_layer_policy(const std::string& text,
                               const std::string& path);

struct ProjectOptions {
    Options rules;
    /**
     * Run the registered-but-unused directions (fault-site-dead,
     * obs-name-dead). Only meaningful when the whole tree is being
     * analyzed; the CLI disables them for explicit PATH subsets.
     */
    bool dead_checks = true;
    /** Layer policy text; empty disables the layering pass. */
    std::string layers_text;
    /** Path the policy was read from (for diagnostics). */
    std::string layers_path = "tools/imc_lint/layers.txt";
};

struct ProjectStats {
    std::size_t files = 0;
    std::size_t include_edges = 0;
    std::size_t diagnostics = 0;
    std::size_t suppressions = 0;
    /** Malformed/unjustified suppressions (lint-suppression count). */
    std::size_t suppressed_without_reason = 0;
};

struct ProjectResult {
    /** All findings, sorted by path, then line, then rule. */
    std::vector<Diagnostic> diags;
    ProjectStats stats;
    /** The merged phase-1 index, sorted by path. */
    std::vector<FileIndex> index;
};

/**
 * Analyze an in-memory project given as (root-relative path,
 * content) pairs — the unit-test entry point. Registry arrays are
 * read from "src/common/fault.hpp" / "src/common/obs.hpp" when those
 * paths are present; the layer policy comes from @p opts.
 */
ProjectResult
analyze_files(const std::vector<std::pair<std::string, std::string>>& files,
              const ProjectOptions& opts);

/**
 * Analyze the on-disk tree: walk @p roots (files or directories)
 * under @p root_dir exactly like lint_tree, load the layer policy
 * and the registry headers from the tree, and run both phases.
 */
ProjectResult analyze_tree(const std::string& root_dir,
                           const std::vector<std::string>& roots,
                           const ProjectOptions& opts);

/** The walk behind analyze_tree: root-relative lintable files. */
std::vector<std::string>
lintable_files(const std::string& root_dir,
               const std::vector<std::string>& roots);

// --- Output -----------------------------------------------------------

/** SARIF 2.1.0 log of @p r (GitHub code-scanning ingestible). */
void write_sarif(std::ostream& os, const ProjectResult& r);

/** Stable "key value" lines (the CI --stats contract). */
void write_stats(std::ostream& os, const ProjectStats& s);

// --- Compatibility entry points ---------------------------------------

/** Rule id -> one-line description, for --list-rules and tests. */
const std::map<std::string, std::string>& rule_descriptions();

/**
 * Lint one file's content (phase 1 only). @p path must be
 * root-relative with '/' separators; it decides the category and the
 * header-guard name. Suppressions have already been applied.
 */
std::vector<Diagnostic> lint_content(const std::string& path,
                                     const std::string& content,
                                     const Options& opts = {});

/** lint_content plus sibling-header unordered-name seeding. */
std::vector<Diagnostic>
lint_content(const std::string& path, const std::string& content,
             const std::string& sibling_header_content,
             const Options& opts);

// Internal entry point shared by lint_content and the tests: run the
// per-file rules without applying suppressions.
std::vector<Diagnostic> run_rules(const FileContext& ctx,
                                  const Options& opts);

/**
 * Names of variables declared with an unordered_map/unordered_set
 * type in @p content — used to seed a .cpp's context from its
 * sibling header so member iteration is caught across the pair.
 */
std::set<std::string>
unordered_decl_names_in(const std::string& content);

} // namespace imc::lint

#endif // IMC_TOOLS_IMC_LINT_LINT_HPP
