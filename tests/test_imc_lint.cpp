/**
 * @file
 * Tests of the imc-lint static analyzer, both phases: every per-file
 * rule fires on its fixture at the exact line, the clean fixtures
 * stay silent, category scoping works, suppressions silence only
 * when justified, the determinism-taint pass tracks flows through
 * locals and across the sibling-header seam, the phase-2 project
 * passes (include cycles, layering policy, fault-site and obs-name
 * registry cross-checks) pin their fixtures exactly, and the SARIF
 * and --stats outputs keep their contracts.
 *
 * Fixtures live in tests/lint_fixtures/ (excluded from the
 * tree-wide ImcLint.Tree run precisely because they violate on
 * purpose) and are read from IMC_LINT_FIXTURE_DIR. The tree_bad/
 * and tree_suppressed/ subtrees are whole mini-projects driven
 * through analyze_tree.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"

namespace {

using imc::lint::analyze_files;
using imc::lint::analyze_tree;
using imc::lint::Diagnostic;
using imc::lint::lint_content;
using imc::lint::Options;
using imc::lint::parse_layer_policy;
using imc::lint::ProjectOptions;
using imc::lint::ProjectResult;

std::string
fixture(const std::string& name)
{
    const std::string path =
        std::string(IMC_LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
fixture_dir(const std::string& name)
{
    return std::string(IMC_LINT_FIXTURE_DIR) + "/" + name;
}

/** (rule, line) pairs, in report order. */
std::vector<std::pair<std::string, int>>
findings(const std::vector<Diagnostic>& diags)
{
    std::vector<std::pair<std::string, int>> out;
    out.reserve(diags.size());
    for (const Diagnostic& d : diags)
        out.emplace_back(d.rule, d.line);
    return out;
}

/** (rule, path, line) triples, in report order. */
std::vector<std::tuple<std::string, std::string, int>>
project_findings(const ProjectResult& r)
{
    std::vector<std::tuple<std::string, std::string, int>> out;
    out.reserve(r.diags.size());
    for (const Diagnostic& d : r.diags)
        out.emplace_back(d.rule, d.path, d.line);
    return out;
}

using Want = std::vector<std::pair<std::string, int>>;
using WantP = std::vector<std::tuple<std::string, std::string, int>>;

// --- Per-file rules ---------------------------------------------------

TEST(ImcLintRules, DeterminismRandFiresPerSite)
{
    const auto diags = lint_content("src/bad_determinism.cpp",
                                    fixture("src/bad_determinism.cpp"));
    EXPECT_EQ(findings(diags), (Want{{"determinism-rand", 9},
                                     {"determinism-rand", 10},
                                     {"determinism-rand", 12},
                                     {"determinism-rand", 14}}));
}

TEST(ImcLintRules, NumberParseFlagsAtoiAndRawStrtod)
{
    const auto diags = lint_content("src/bad_parse.cpp",
                                    fixture("src/bad_parse.cpp"));
    EXPECT_EQ(findings(diags), (Want{{"banned-number-parse", 8},
                                     {"banned-number-parse", 10},
                                     {"banned-number-parse", 12}}));
}

TEST(ImcLintRules, PrintfBannedInLibraryOnly)
{
    const std::string content = fixture("src/bad_printf.cpp");
    const auto in_src = lint_content("src/bad_printf.cpp", content);
    EXPECT_EQ(findings(in_src), (Want{{"banned-printf", 5}}));
    // The same code in a bench harness is allowed to print.
    const auto in_bench =
        lint_content("bench/bad_printf.cpp", content);
    EXPECT_TRUE(in_bench.empty());
}

TEST(ImcLintRules, NewDeleteFlagsNakedButNotDeletedFunctions)
{
    const auto diags = lint_content("src/bad_new_delete.cpp",
                                    fixture("src/bad_new_delete.cpp"));
    EXPECT_EQ(findings(diags), (Want{{"banned-new-delete", 7},
                                     {"banned-new-delete", 8}}));
}

TEST(ImcLintRules, ConfigErrorNeedsContext)
{
    const auto diags =
        lint_content("src/bad_config_error.cpp",
                     fixture("src/bad_config_error.cpp"));
    EXPECT_EQ(findings(diags), (Want{{"config-error-context", 8}}));
}

TEST(ImcLintRules, HeaderGuardMustMatchPath)
{
    const auto diags = lint_content("src/bad_guard.hpp",
                                    fixture("src/bad_guard.hpp"));
    ASSERT_EQ(findings(diags), (Want{{"header-guard", 1}}));
    EXPECT_NE(diags[0].message.find("IMC_BAD_GUARD_HPP"),
              std::string::npos);
}

TEST(ImcLintRules, IncludeOrderRejectsInterleavedGroups)
{
    const auto diags =
        lint_content("src/bad_include_order.cpp",
                     fixture("src/bad_include_order.cpp"));
    EXPECT_EQ(findings(diags), (Want{{"include-order", 6}}));
}

TEST(ImcLintRules, ObsGateOnlyInLibraryCode)
{
    const std::string content = fixture("src/bad_obs.cpp");
    const auto in_src = lint_content("src/bad_obs.cpp", content);
    EXPECT_EQ(findings(in_src),
              (Want{{"obs-gate", 9}, {"obs-gate", 10}}));
    // Tests may exercise the obs API directly.
    const auto in_tests = lint_content("tests/bad_obs.cpp", content);
    EXPECT_TRUE(in_tests.empty());
}

TEST(ImcLintRules, FaultGateOnlyInLibraryCode)
{
    const std::string content = fixture("src/bad_fault.cpp");
    const auto in_src = lint_content("src/bad_fault.cpp", content);
    EXPECT_EQ(findings(in_src),
              (Want{{"fault-gate", 10}, {"fault-gate", 11}}));
    // Tests and the fault implementation exercise the API directly.
    EXPECT_TRUE(lint_content("tests/bad_fault.cpp", content).empty());
    EXPECT_TRUE(
        lint_content("src/common/fault.cpp", content).empty());
}

TEST(ImcLintRules, FaultSiteMustBeALiteralPerFile)
{
    // Per-file phase 1 checks only literal-ness; whether the literal
    // is *registered* is the phase-2 cross-check (below).
    const std::string content = fixture("src/bad_fault_site.cpp");
    const auto in_src =
        lint_content("src/bad_fault_site.cpp", content);
    EXPECT_EQ(findings(in_src), (Want{{"fault-site", 12}}));
    // The rule follows the probe macro everywhere it can appear —
    // tests included — but never inside the defining header (which
    // spells the forwarded macro arguments as identifiers).
    EXPECT_EQ(
        lint_content("tests/bad_fault_site.cpp", content).size(), 1u);
    for (const Diagnostic& d :
         lint_content("src/common/fault.hpp", content))
        EXPECT_NE(d.rule, "fault-site");
}

// --- determinism-taint ------------------------------------------------

TEST(ImcLintTaint, FlowsThroughLocalsIntoStreamAndDigest)
{
    const auto diags = lint_content("src/bad_taint.cpp",
                                    fixture("src/bad_taint.cpp"));
    EXPECT_EQ(findings(diags), (Want{{"determinism-taint", 15},
                                     {"determinism-taint", 22}}));
}

TEST(ImcLintTaint, KeyedLookupsAndSortedEmissionStayClean)
{
    // find/emplace and operator[] never iterate; sorting before
    // emission sanitizes — both idioms the real tree relies on. The
    // fixture also reuses the loop name `k` across a tainted and a
    // clean range-for: the clean binding must kill the stale taint.
    const auto diags = lint_content("src/clean_taint.cpp",
                                    fixture("src/clean_taint.cpp"));
    for (const Diagnostic& d : diags)
        if (d.rule == "determinism-taint")
            FAIL() << d.message;
}

TEST(ImcLintTaint, SuppressionSilencesTheTaintPass)
{
    const auto diags =
        lint_content("src/taint_suppressed.cpp",
                     fixture("src/taint_suppressed.cpp"));
    EXPECT_TRUE(diags.empty())
        << (diags.empty() ? "" : diags[0].message);
}

TEST(ImcLintTaint, SiblingHeaderMembersAreTracked)
{
    const std::string cpp = fixture("src/member_iter.cpp");
    const std::string hpp = fixture("src/member_iter.hpp");
    // Without the header the member's type is unknown — silent.
    EXPECT_TRUE(lint_content("src/member_iter.cpp", cpp).empty());
    const auto diags =
        lint_content("src/member_iter.cpp", cpp, hpp, Options{});
    EXPECT_EQ(findings(diags), (Want{{"determinism-taint", 14}}));
}

// --- Suppressions -----------------------------------------------------

TEST(ImcLintSuppression, JustifiedSilencesUnjustifiedDoesNot)
{
    const auto diags = lint_content("src/suppressed.cpp",
                                    fixture("src/suppressed.cpp"));
    EXPECT_EQ(findings(diags), (Want{{"banned-printf", 14},
                                     {"lint-suppression", 14},
                                     {"lint-suppression", 16}}));
}

TEST(ImcLintClean, ConformingHeaderIsSilent)
{
    const auto diags =
        lint_content("src/clean.hpp", fixture("src/clean.hpp"));
    EXPECT_TRUE(diags.empty()) << diags.size() << " diagnostics, "
                               << "first: "
                               << (diags.empty() ? ""
                                                 : diags[0].message);
}

TEST(ImcLintOptions, DisabledRulesAreFiltered)
{
    Options opts;
    opts.disabled_rules.insert("banned-printf");
    const auto diags = lint_content(
        "src/bad_printf.cpp", fixture("src/bad_printf.cpp"), opts);
    EXPECT_TRUE(diags.empty());
}

// --- Phase 2: project passes ------------------------------------------

TEST(ImcLintProject, TreeBadPinsEveryCrossFileRule)
{
    ProjectOptions opts; // dead checks on, policy auto-loaded
    const ProjectResult r =
        analyze_tree(fixture_dir("tree_bad"), {"src"}, opts);
    EXPECT_EQ(
        project_findings(r),
        (WantP{
            {"layer-violation", "src/common/base.hpp", 4},
            {"fault-site-dead", "src/common/fault.hpp", 5},
            {"obs-name-dead", "src/common/obs.hpp", 5},
            {"include-cycle", "src/sim/loop.hpp", 4},
            {"fault-site", "src/sim/use.cpp", 6},
            {"obs-name", "src/sim/use.cpp", 8},
        }));
    // The offending layer edge is named in full.
    EXPECT_NE(r.diags[0].message.find(
                  "src/common/base.hpp -> src/sim/loop.hpp"),
              std::string::npos);
}

TEST(ImcLintProject, TreeSuppressedIsFullyClean)
{
    ProjectOptions opts;
    const ProjectResult r =
        analyze_tree(fixture_dir("tree_suppressed"), {"src"}, opts);
    EXPECT_TRUE(r.diags.empty())
        << (r.diags.empty() ? "" : r.diags[0].message);
    EXPECT_EQ(r.stats.suppressed_without_reason, 0u);
    EXPECT_EQ(r.stats.suppressions, 6u);
}

TEST(ImcLintProject, DeadChecksAreScopedToWholeTreeRuns)
{
    ProjectOptions opts;
    opts.dead_checks = false; // the CLI's explicit-PATH behaviour
    const ProjectResult r =
        analyze_tree(fixture_dir("tree_bad"), {"src"}, opts);
    for (const Diagnostic& d : r.diags) {
        EXPECT_NE(d.rule, "fault-site-dead");
        EXPECT_NE(d.rule, "obs-name-dead");
    }
    EXPECT_EQ(r.diags.size(), 4u);
}

TEST(ImcLintProject, ToolsReachSrcOnlyThroughPublicHeaders)
{
    const std::string policy = "layer common src/common/\n"
                               "public src/common/cli.hpp\n";
    ProjectOptions opts;
    opts.dead_checks = false;
    opts.layers_text = policy;
    const auto hdr = [](const std::string& guard) {
        return "#ifndef " + guard + "\n#define " + guard +
               "\n#endif // " + guard + "\n";
    };
    const ProjectResult r = analyze_files(
        {{"src/common/cli.hpp", hdr("IMC_COMMON_CLI_HPP")},
         {"src/common/rng.hpp", hdr("IMC_COMMON_RNG_HPP")},
         {"tools/probe/main.cpp", "#include \"common/cli.hpp\"\n"
                                  "#include \"common/rng.hpp\"\n"}},
        opts);
    EXPECT_EQ(project_findings(r),
              (WantP{{"layer-violation", "tools/probe/main.cpp", 2}}));
    EXPECT_NE(r.diags[0].message.find("src/common/rng.hpp"),
              std::string::npos);
}

TEST(ImcLintProject, LayerPolicyParseErrorsAreDiagnostics)
{
    const auto policy = parse_layer_policy("layer a src/a/\n"
                                           "allow a b\n"
                                           "frobnicate x\n",
                                           "layers.txt");
    ASSERT_EQ(policy.errors.size(), 2u);
    EXPECT_EQ(policy.errors[0].rule, "layer-policy");
    EXPECT_EQ(policy.errors[0].line, 2);
    EXPECT_EQ(policy.errors[1].line, 3);
}

TEST(ImcLintProject, ObsPatternsNormalizeDynamicFragments)
{
    const std::string registry =
        "#ifndef IMC_COMMON_OBS_HPP\n"
        "#define IMC_COMMON_OBS_HPP\n"
        "inline constexpr const char* kObsNames[] = {\n"
        "    \"fault.injected.*\",\n"
        "    \"*.runs\",\n"
        "};\n"
        "#endif // IMC_COMMON_OBS_HPP\n";
    const std::string use =
        "#include <string>\n"
        "void f(const std::string& site, const std::string& pfx,\n"
        "       const std::string& dyn)\n"
        "{\n"
        "    IMC_OBS_COUNT(\"fault.injected.\" + site);\n"
        "    IMC_OBS_COUNT(pfx + \".runs\");\n"
        "    IMC_OBS_COUNT(pfx + dyn);\n"
        "}\n";
    ProjectOptions opts;
    opts.dead_checks = false;
    const ProjectResult r = analyze_files(
        {{"src/common/obs.hpp", registry}, {"src/x.cpp", use}},
        opts);
    // Lines 5 and 6 normalize to registered patterns; the fully
    // dynamic name on line 7 normalizes to "*" and is rejected.
    EXPECT_EQ(project_findings(r),
              (WantP{{"obs-name", "src/x.cpp", 7}}));
}

// --- Output formats ---------------------------------------------------

TEST(ImcLintOutput, SarifCarriesRulesAndResults)
{
    ProjectOptions opts;
    opts.dead_checks = false;
    const ProjectResult r = analyze_files(
        {{"src/p.cpp",
          "#include <cstdio>\nvoid f() { std::printf(\"x\"); }\n"}},
        opts);
    std::ostringstream os;
    imc::lint::write_sarif(os, r);
    const std::string sarif = os.str();
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"banned-printf\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"src/p.cpp\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 2"), std::string::npos);
}

TEST(ImcLintOutput, StatsContractIsStable)
{
    ProjectOptions opts;
    const ProjectResult r =
        analyze_tree(fixture_dir("tree_suppressed"), {"src"}, opts);
    std::ostringstream os;
    imc::lint::write_stats(os, r.stats);
    EXPECT_EQ(os.str(), "files 5\n"
                        "include_edges 2\n"
                        "diagnostics 0\n"
                        "suppressions 6\n"
                        "suppressed_without_reason 0\n");
}

// --- Meta -------------------------------------------------------------

TEST(ImcLintMeta, EveryEmittedRuleIsDocumented)
{
    const auto& desc = imc::lint::rule_descriptions();
    for (const char* f :
         {"src/bad_determinism.cpp", "src/bad_taint.cpp",
          "src/bad_parse.cpp", "src/bad_printf.cpp",
          "src/bad_new_delete.cpp", "src/bad_config_error.cpp",
          "src/bad_guard.hpp", "src/bad_include_order.cpp",
          "src/bad_obs.cpp", "src/bad_fault.cpp",
          "src/bad_fault_site.cpp", "src/suppressed.cpp"}) {
        for (const Diagnostic& d : lint_content(f, fixture(f)))
            EXPECT_EQ(desc.count(d.rule), 1u)
                << "undocumented rule " << d.rule;
    }
    // The phase-2 rules are documented too.
    for (const char* rule :
         {"include-cycle", "layer-violation", "layer-policy",
          "fault-site-dead", "obs-name", "obs-name-dead",
          "determinism-taint"})
        EXPECT_EQ(desc.count(rule), 1u) << rule;
}

} // namespace
