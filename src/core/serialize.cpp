#include "core/serialize.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace imc::core {

namespace {

constexpr const char* kMagic = "imc-model v1";

/** Read the next non-comment, non-empty line. */
bool
next_line(std::istream& is, std::string& line)
{
    while (std::getline(is, line)) {
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        if (line[first] == '#')
            continue;
        return true;
    }
    return false;
}

/** Expect a line starting with a keyword; return the remainder. */
std::string
expect(std::istream& is, const std::string& keyword)
{
    std::string line;
    require(next_line(is, line),
            "load_model: unexpected end of input, expected '" +
                keyword + "'");
    std::istringstream ss(line);
    std::string head;
    ss >> head;
    require(head == keyword, "load_model: expected '" + keyword +
                                 "', got '" + head + "'");
    std::string rest;
    std::getline(ss, rest);
    const auto first = rest.find_first_not_of(" \t");
    return first == std::string::npos ? "" : rest.substr(first);
}

/**
 * After the numeric reads of a line, require that nothing but
 * whitespace remains: a trailing non-numeric token ("row 1 1 1.2oops")
 * used to silently truncate the parsed values.
 */
void
require_fully_consumed(std::istringstream& ss, const char* what)
{
    ss.clear(); // the value loop left failbit (and maybe eofbit) set
    std::string trailing;
    if (ss >> trailing) {
        throw ConfigError(
            std::string("load_model: trailing garbage '") + trailing +
            "' on " + what + " line");
    }
}

} // namespace

HeteroPolicy
policy_from_string(const std::string& name)
{
    for (const auto policy : all_policies()) {
        if (to_string(policy) == name)
            return policy;
    }
    throw ConfigError("policy_from_string: unknown policy '" + name +
                      "'");
}

void
save_model(std::ostream& os, const InterferenceModel& model)
{
    os << kMagic << '\n';
    os << "# interference model; see core/serialize.hpp for format\n";
    os << "app " << model.app() << '\n';
    os << "policy " << to_string(model.policy()) << '\n';
    os << std::setprecision(17);
    os << "score " << model.bubble_score() << '\n';
    const auto& matrix = model.matrix();
    os << "pressures";
    for (double p : matrix.pressures())
        os << ' ' << p;
    os << '\n';
    for (int i = 1; i <= matrix.pressure_levels(); ++i) {
        os << "row " << i;
        for (int j = 0; j <= matrix.hosts(); ++j)
            os << ' ' << matrix.at(i, j);
        os << '\n';
    }
}

InterferenceModel
load_model(std::istream& is)
{
    std::string line;
    require(next_line(is, line) && line == kMagic,
            "load_model: bad magic/version line");

    const std::string app = expect(is, "app");
    require(!app.empty(), "load_model: empty app name");
    const HeteroPolicy policy =
        policy_from_string(expect(is, "policy"));

    double score = -1.0;
    {
        std::istringstream ss(expect(is, "score"));
        require(static_cast<bool>(ss >> score),
                "load_model: bad score");
        require_fully_consumed(ss, "score");
    }

    std::vector<double> pressures;
    {
        std::istringstream ss(expect(is, "pressures"));
        double p;
        while (ss >> p)
            pressures.push_back(p);
        require_fully_consumed(ss, "pressures");
        require(!pressures.empty(), "load_model: empty pressure grid");
    }

    std::vector<std::vector<double>> rows(pressures.size());
    for (std::size_t i = 0; i < pressures.size(); ++i) {
        std::istringstream ss(expect(is, "row"));
        int index = -1;
        require(static_cast<bool>(ss >> index) &&
                    index == static_cast<int>(i) + 1,
                "load_model: rows out of order");
        double v;
        while (ss >> v)
            rows[i].push_back(v);
        require_fully_consumed(ss, "row");
        require(rows[i].size() >= 2, "load_model: row too short");
        require(i == 0 || rows[i].size() == rows[0].size(),
                "load_model: ragged rows");
    }

    // A "row" line beyond the last expected one used to be silently
    // ignored — reject it (the matrix the writer meant is ambiguous).
    {
        std::string extra_line;
        if (next_line(is, extra_line)) {
            std::istringstream ss(extra_line);
            std::string head;
            ss >> head;
            require(head != "row",
                    "load_model: extra 'row' line after row " +
                        std::to_string(pressures.size()));
        }
    }

    // SensitivityMatrix and InterferenceModel constructors re-validate
    // everything else (column 0, positivity, monotone grid, score).
    return InterferenceModel(app,
                             SensitivityMatrix(std::move(rows),
                                               std::move(pressures)),
                             policy, score);
}

void
save_model_file(const std::string& path, const InterferenceModel& model)
{
    namespace fs = std::filesystem;
    // Unique sibling temp name (rename is atomic only within one
    // directory/filesystem): pid + a process-wide ticket distinguish
    // concurrent writers of the same path.
    static std::atomic<std::uint64_t> ticket{0};
    fs::path tmp(path);
    tmp += ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(ticket.fetch_add(1,
                                           std::memory_order_relaxed));
    std::ofstream os(tmp);
    save_model(os, model); // a stream that failed to open ignores it
    os.close();
    std::error_code ec;
    if (os)
        fs::rename(tmp, path, ec);
    if (!os || ec) {
        fs::remove(tmp, ec);
        throw ConfigError("save_model_file: cannot write '" + path + "'");
    }
}

InterferenceModel
load_model_file(const std::string& path)
{
    std::ifstream is(path);
    require(static_cast<bool>(is),
            "load_model_file: cannot open '" + path + "'");
    return load_model(is);
}

} // namespace imc::core
