#include "internal.hpp"
#include "lint.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <sstream>

/**
 * @file
 * Phase 2: the cross-file passes over the merged index — the project
 * include graph (cycles + the layering policy), the fault-site and
 * obs-name used⇔registered cross-checks — plus the SARIF and stats
 * writers and the analyze_files / analyze_tree entry points.
 */

namespace imc::lint {

namespace {

namespace fs = std::filesystem;

// --- Layer policy -----------------------------------------------------

/** Longest-prefix layer of @p path, or "" when unlayered. */
std::string
layer_of(const LayerPolicy& policy, const std::string& path)
{
    std::string best;
    std::size_t best_len = 0;
    for (const LayerPolicy::Layer& l : policy.layers) {
        if (path.rfind(l.prefix, 0) == 0 &&
            l.prefix.size() > best_len) {
            best = l.name;
            best_len = l.prefix.size();
        }
    }
    return best;
}

// --- Include resolution -----------------------------------------------

/**
 * Resolve a quoted include against the indexed file set. Candidates
 * mirror the build's include dirs: the including file's directory,
 * then src/, bench/, tools/imc_lint/, and the tree root. Unresolved
 * targets (third-party or generated headers) produce no edge.
 */
std::string
resolve_include(const std::string& from, const IncludeRef& ref,
                const std::set<std::string>& paths)
{
    if (ref.angle)
        return "";
    std::vector<std::string> cands;
    const std::size_t slash = from.rfind('/');
    if (slash != std::string::npos)
        cands.push_back(from.substr(0, slash + 1) + ref.target);
    cands.push_back("src/" + ref.target);
    cands.push_back("bench/" + ref.target);
    cands.push_back("tools/imc_lint/" + ref.target);
    cands.push_back(ref.target);
    for (const std::string& c : cands)
        if (paths.count(c) > 0)
            return c;
    return "";
}

struct Edge {
    std::string from;
    std::string to;
    int line = 0;
};

std::vector<Edge>
resolved_edges(const std::vector<FileIndex>& index)
{
    std::set<std::string> paths;
    for (const FileIndex& idx : index)
        paths.insert(idx.path);
    std::vector<Edge> edges;
    for (const FileIndex& idx : index)
        for (const IncludeRef& ref : idx.includes) {
            const std::string to =
                resolve_include(idx.path, ref, paths);
            if (!to.empty() && to != idx.path)
                edges.push_back({idx.path, to, ref.line});
        }
    return edges;
}

// --- Cycle detection --------------------------------------------------

class CycleFinder {
  public:
    CycleFinder(const std::vector<Edge>& edges,
                std::vector<Diagnostic>& out)
        : out_(out)
    {
        for (const Edge& e : edges)
            adj_[e.from].push_back(&e);
        for (auto& [from, list] : adj_)
            std::sort(list.begin(), list.end(),
                      [](const Edge* a, const Edge* b) {
                          if (a->to != b->to)
                              return a->to < b->to;
                          return a->line < b->line;
                      });
    }

    void run()
    {
        for (const auto& [node, _] : adj_)
            if (color_.count(node) == 0)
                dfs(node);
    }

  private:
    void dfs(const std::string& u)
    {
        color_[u] = 1; // on the current path
        path_.push_back(u);
        const auto it = adj_.find(u);
        if (it != adj_.end()) {
            for (const Edge* e : it->second) {
                const auto c = color_.find(e->to);
                if (c == color_.end()) {
                    dfs(e->to);
                } else if (c->second == 1) {
                    // Back edge: the chain from e->to around to u
                    // plus this include closes the cycle.
                    std::string chain;
                    bool in = false;
                    for (const std::string& p : path_) {
                        if (p == e->to)
                            in = true;
                        if (in)
                            chain += p + " -> ";
                    }
                    chain += e->to;
                    out_.push_back(
                        {"include-cycle", u, e->line,
                         "include cycle: " + chain +
                             "; the project include graph must stay "
                             "a DAG"});
                }
            }
        }
        path_.pop_back();
        color_[u] = 2;
    }

    std::map<std::string, std::vector<const Edge*>> adj_;
    std::map<std::string, int> color_;
    std::vector<std::string> path_;
    std::vector<Diagnostic>& out_;
};

// --- The passes -------------------------------------------------------

void
pass_layering(const std::vector<Edge>& edges,
              const LayerPolicy& policy,
              std::vector<Diagnostic>& out)
{
    for (const Edge& e : edges) {
        // tools/ may reach src/ only through declared public headers
        // (the analyzer must never grow a dependency on library
        // internals it is supposed to audit).
        if (e.from.rfind("tools/", 0) == 0 &&
            e.to.rfind("src/", 0) == 0) {
            if (policy.public_headers.count(e.to) == 0)
                out.push_back(
                    {"layer-violation", e.from, e.line,
                     "include edge " + e.from + " -> " + e.to +
                         " reaches src/ internals; tools/ may "
                         "include only headers declared 'public' in "
                         "the layering policy"});
            continue;
        }
        const std::string from_layer = layer_of(policy, e.from);
        const std::string to_layer = layer_of(policy, e.to);
        if (from_layer.empty() || to_layer.empty() ||
            from_layer == to_layer)
            continue;
        const auto it = policy.allowed.find(from_layer);
        const bool ok = it != policy.allowed.end() &&
                        it->second.count(to_layer) > 0;
        if (!ok)
            out.push_back(
                {"layer-violation", e.from, e.line,
                 "include edge " + e.from + " -> " + e.to +
                     " violates the layering policy: layer '" +
                     from_layer + "' may not include layer '" +
                     to_layer + "'"});
    }
}

void
pass_fault_sites(const std::vector<FileIndex>& index,
                 const std::vector<RegistryEntry>& registry,
                 bool dead_checks, std::vector<Diagnostic>& out)
{
    if (registry.empty())
        return; // no site table in scope: nothing to check against
    std::set<std::string> registered;
    for (const RegistryEntry& e : registry)
        registered.insert(e.name);
    std::set<std::string> probed;
    for (const FileIndex& idx : index)
        for (const FaultProbe& p : idx.fault_probes) {
            if (!p.literal)
                continue; // phase-1 fault-site already flagged it
            probed.insert(p.site);
            if (registered.count(p.site) == 0)
                out.push_back(
                    {"fault-site", idx.path, p.line,
                     "unknown fault site \"" + p.site +
                         "\"; register it in the "
                         "src/common/fault.hpp kFaultSites table so "
                         "schedules and docs can reach it"});
        }
    if (!dead_checks)
        return;
    for (const RegistryEntry& e : registry)
        if (probed.count(e.name) == 0)
            out.push_back(
                {"fault-site-dead", "src/common/fault.hpp", e.line,
                 "registered fault site \"" + e.name +
                     "\" is never probed; no schedule or chaos run "
                     "can reach it — delete the entry or add the "
                     "IMC_FAULT_PROBE"});
}

void
pass_obs_names(const std::vector<FileIndex>& index,
               const std::vector<RegistryEntry>& registry,
               bool dead_checks, std::vector<Diagnostic>& out)
{
    if (registry.empty())
        return;
    std::set<std::string> registered;
    for (const RegistryEntry& e : registry)
        registered.insert(e.name);
    std::set<std::string> used;
    for (const FileIndex& idx : index) {
        const bool enforced = idx.category == Category::Library;
        for (const ObsUse& u : idx.obs_uses) {
            if (idx.category != Category::Test)
                used.insert(u.pattern);
            if (enforced && registered.count(u.pattern) == 0)
                out.push_back(
                    {"obs-name", idx.path, u.line,
                     "obs name \"" + u.pattern +
                         "\" is not registered in the "
                         "src/common/obs.hpp kObsNames table; "
                         "register it (patterns use one '*' per "
                         "dynamic fragment) so dashboards can't "
                         "reference names that drifted"});
        }
    }
    if (!dead_checks)
        return;
    for (const RegistryEntry& e : registry)
        if (used.count(e.name) == 0)
            out.push_back(
                {"obs-name-dead", "src/common/obs.hpp", e.line,
                 "registered obs name \"" + e.name +
                     "\" is never recorded; delete the entry or add "
                     "the IMC_OBS_* site"});
}

// --- Orchestration ----------------------------------------------------

ProjectResult
run_project(std::vector<FileIndex> index, const ProjectOptions& opts)
{
    std::sort(index.begin(), index.end(),
              [](const FileIndex& a, const FileIndex& b) {
                  return a.path < b.path;
              });

    ProjectResult r;
    r.stats.files = index.size();

    // Phase-1 findings (already suppression-filtered per file).
    std::map<std::string, const FileIndex*> by_path;
    for (const FileIndex& idx : index) {
        by_path[idx.path] = &idx;
        r.stats.suppressions += idx.suppressions.size();
        for (const Diagnostic& d : idx.diags)
            r.diags.push_back(d);
    }

    // Phase-2 passes.
    std::vector<Diagnostic> cross;
    const std::vector<Edge> edges = resolved_edges(index);
    r.stats.include_edges = edges.size();
    CycleFinder(edges, cross).run();

    LayerPolicy policy;
    if (!opts.layers_text.empty()) {
        policy = parse_layer_policy(opts.layers_text,
                                    opts.layers_path);
        for (const Diagnostic& d : policy.errors)
            cross.push_back(d);
        pass_layering(edges, policy, cross);
    }

    std::vector<RegistryEntry> fault_registry, obs_registry;
    for (const FileIndex& idx : index) {
        fault_registry.insert(fault_registry.end(),
                              idx.fault_sites.begin(),
                              idx.fault_sites.end());
        obs_registry.insert(obs_registry.end(),
                            idx.obs_names.begin(),
                            idx.obs_names.end());
    }
    pass_fault_sites(index, fault_registry, opts.dead_checks, cross);
    pass_obs_names(index, obs_registry, opts.dead_checks, cross);

    // Cross-file findings honor the same per-line suppressions and
    // the same --allow set as per-file ones.
    for (Diagnostic& d : cross) {
        if (opts.rules.disabled_rules.count(d.rule) > 0)
            continue;
        const auto it = by_path.find(d.path);
        if (it != by_path.end() &&
            detail::suppressed(*it->second, d))
            continue;
        r.diags.push_back(std::move(d));
    }

    std::sort(r.diags.begin(), r.diags.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    r.stats.diagnostics = r.diags.size();
    for (const Diagnostic& d : r.diags)
        if (d.rule == "lint-suppression")
            ++r.stats.suppressed_without_reason;
    r.index = std::move(index);
    return r;
}

} // namespace

LayerPolicy
parse_layer_policy(const std::string& text, const std::string& path)
{
    LayerPolicy policy;
    const std::vector<std::string> lines =
        detail::split_lines(text);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const int lineno = static_cast<int>(i) + 1;
        const std::string line = detail::trim(lines[i]);
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string kw;
        ss >> kw;
        auto fail = [&](const std::string& why) {
            policy.errors.push_back(
                {"layer-policy", path, lineno,
                 "bad policy line: " + why});
        };
        if (kw == "layer") {
            LayerPolicy::Layer l;
            ss >> l.name >> l.prefix;
            if (l.name.empty() || l.prefix.empty()) {
                fail("expected 'layer <name> <path-prefix>'");
                continue;
            }
            policy.layers.push_back(std::move(l));
        } else if (kw == "allow") {
            std::string from;
            ss >> from;
            if (from.empty()) {
                fail("expected 'allow <layer> <layer...>'");
                continue;
            }
            std::string to;
            bool any = false;
            bool ok = true;
            auto known = [&](const std::string& name) {
                for (const LayerPolicy::Layer& l : policy.layers)
                    if (l.name == name)
                        return true;
                return false;
            };
            if (!known(from)) {
                fail("unknown layer '" + from +
                     "' (declare it with 'layer' first)");
                continue;
            }
            while (ss >> to) {
                if (!known(to)) {
                    fail("unknown layer '" + to +
                         "' (declare it with 'layer' first)");
                    ok = false;
                    break;
                }
                policy.allowed[from].insert(to);
                any = true;
            }
            if (ok && !any)
                fail("expected 'allow <layer> <layer...>'");
        } else if (kw == "public") {
            std::string p;
            ss >> p;
            if (p.empty()) {
                fail("expected 'public <header-path>'");
                continue;
            }
            policy.public_headers.insert(p);
        } else {
            fail("unknown directive '" + kw +
                 "' (expected layer/allow/public)");
        }
    }
    return policy;
}

ProjectResult
analyze_files(
    const std::vector<std::pair<std::string, std::string>>& files,
    const ProjectOptions& opts)
{
    std::map<std::string, const std::string*> by_path;
    for (const auto& [path, content] : files)
        by_path[path] = &content;
    std::vector<FileIndex> index;
    index.reserve(files.size());
    for (const auto& [path, content] : files) {
        std::string sibling;
        const std::size_t dot = path.rfind('.');
        if (dot != std::string::npos &&
            (path.substr(dot) == ".cpp" ||
             path.substr(dot) == ".cc")) {
            const auto it =
                by_path.find(path.substr(0, dot) + ".hpp");
            if (it != by_path.end())
                sibling = *it->second;
        }
        index.push_back(
            index_content(path, content, sibling, opts.rules));
    }
    return run_project(std::move(index), opts);
}

ProjectResult
analyze_tree(const std::string& root_dir,
             const std::vector<std::string>& roots,
             const ProjectOptions& opts)
{
    const fs::path root = root_dir.empty() ? fs::path(".")
                                           : fs::path(root_dir);
    ProjectOptions effective = opts;
    if (effective.layers_text.empty()) {
        const fs::path policy = root / "tools/imc_lint/layers.txt";
        if (fs::is_regular_file(policy))
            effective.layers_text =
                detail::read_file(policy.string());
    }

    std::vector<std::string> files = lintable_files(root_dir, roots);
    // The registry headers always participate (a subset run that
    // probes a site still needs the table to check it against).
    for (const char* reg :
         {"src/common/fault.hpp", "src/common/obs.hpp"}) {
        if (std::find(files.begin(), files.end(), reg) ==
                files.end() &&
            fs::is_regular_file(root / reg))
            files.push_back(reg);
    }
    std::sort(files.begin(), files.end());

    std::vector<FileIndex> index;
    index.reserve(files.size());
    for (const std::string& rel : files) {
        const std::string content =
            detail::read_file((root / rel).string());
        std::string sibling;
        const std::size_t dot = rel.rfind('.');
        if (dot != std::string::npos &&
            (rel.substr(dot) == ".cpp" || rel.substr(dot) == ".cc")) {
            const fs::path header =
                root / (rel.substr(0, dot) + ".hpp");
            if (fs::is_regular_file(header))
                sibling = detail::read_file(header.string());
        }
        index.push_back(
            index_content(rel, content, sibling, effective.rules));
    }
    return run_project(std::move(index), effective);
}

// --- Output -----------------------------------------------------------

namespace {

std::string
json_escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

void
write_sarif(std::ostream& os, const ProjectResult& r)
{
    os << "{\n"
       << "  \"version\": \"2.1.0\",\n"
       << "  \"$schema\": "
          "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
       << "  \"runs\": [\n    {\n"
       << "      \"tool\": {\n        \"driver\": {\n"
       << "          \"name\": \"imc-lint\",\n"
       << "          \"rules\": [\n";
    bool first = true;
    for (const auto& [id, desc] : rule_descriptions()) {
        os << (first ? "" : ",\n") << "            {\"id\": \""
           << json_escape(id) << "\", \"shortDescription\": {\"text\": \""
           << json_escape(desc) << "\"}}";
        first = false;
    }
    os << "\n          ]\n        }\n      },\n"
       << "      \"results\": [\n";
    first = true;
    for (const Diagnostic& d : r.diags) {
        os << (first ? "" : ",\n") << "        {\"ruleId\": \""
           << json_escape(d.rule)
           << "\", \"level\": \"error\", \"message\": {\"text\": \""
           << json_escape(d.message)
           << "\"}, \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": \""
           << json_escape(d.path)
           << "\"}, \"region\": {\"startLine\": "
           << (d.line > 0 ? d.line : 1) << "}}}]}";
        first = false;
    }
    os << "\n      ]\n    }\n  ]\n}\n";
}

void
write_stats(std::ostream& os, const ProjectStats& s)
{
    os << "files " << s.files << "\n"
       << "include_edges " << s.include_edges << "\n"
       << "diagnostics " << s.diagnostics << "\n"
       << "suppressions " << s.suppressions << "\n"
       << "suppressed_without_reason " << s.suppressed_without_reason
       << "\n";
}

} // namespace imc::lint
