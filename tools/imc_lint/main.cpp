/**
 * @file
 * imc_lint CLI.
 *
 *   imc_lint [--root DIR] [--allow RULE]... [--sarif FILE]
 *            [--stats] [--list-rules] [PATH]...
 *
 * PATHs (files or directories, relative to --root) default to the
 * five linted trees: src examples bench tests tools. The
 * registered-but-unused passes (fault-site-dead, obs-name-dead) run
 * only on that default whole-tree scope — a single-file run cannot
 * know a site is probed elsewhere. Exit status is 0 when clean, 1
 * when diagnostics were emitted, 2 on usage errors — so the ctest /
 * CI wiring is a bare invocation.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

int
usage(std::ostream& os, int code)
{
    os << "usage: imc_lint [--root DIR] [--allow RULE]... "
          "[--sarif FILE]\n"
          "                [--stats] [--list-rules] [PATH]...\n"
          "  --root DIR    resolve PATHs and report paths relative "
          "to DIR (default .)\n"
          "  --allow RULE  disable RULE everywhere (prefer inline "
          "justified suppressions)\n"
          "  --sarif FILE  also write the findings as SARIF 2.1.0\n"
          "  --stats       print analyzer statistics to stdout\n"
          "  --list-rules  print rule ids and one-line "
          "descriptions\n";
    return code;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string root = ".";
    std::string sarif_path;
    bool stats = false;
    imc::lint::ProjectOptions opts;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(std::cout, 0);
        if (arg == "--list-rules") {
            for (const auto& [rule, desc] :
                 imc::lint::rule_descriptions())
                std::cout << rule << ": " << desc << "\n";
            return 0;
        }
        auto value = [&](std::string& into) {
            if (++i >= argc)
                return false;
            into = argv[i];
            return true;
        };
        if (arg == "--root") {
            if (!value(root))
                return usage(std::cerr, 2);
        } else if (arg == "--sarif") {
            if (!value(sarif_path))
                return usage(std::cerr, 2);
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--allow") {
            if (++i >= argc)
                return usage(std::cerr, 2);
            if (imc::lint::rule_descriptions().count(argv[i]) == 0) {
                std::cerr << "imc_lint: unknown rule '" << argv[i]
                          << "' (try --list-rules)\n";
                return 2;
            }
            opts.rules.disabled_rules.insert(argv[i]);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "imc_lint: unknown option '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        } else {
            paths.push_back(arg);
        }
    }
    // Dead-site detection needs the whole tree in view: an explicit
    // PATH subset would report every site unprobed.
    opts.dead_checks = paths.empty();
    if (paths.empty())
        paths = {"src", "examples", "bench", "tests", "tools"};

    const imc::lint::ProjectResult result =
        imc::lint::analyze_tree(root, paths, opts);
    for (const auto& d : result.diags)
        std::cout << d.path << ":" << d.line << ": [" << d.rule
                  << "] " << d.message << "\n";
    if (!sarif_path.empty()) {
        std::ofstream out(sarif_path, std::ios::trunc);
        imc::lint::write_sarif(out, result);
    }
    if (stats)
        imc::lint::write_stats(std::cout, result.stats);
    std::cerr << "imc_lint: " << result.diags.size()
              << " diagnostic"
              << (result.diags.size() == 1 ? "" : "s") << " across "
              << result.stats.files << " files\n";
    return result.diags.empty() ? 0 : 1;
}
