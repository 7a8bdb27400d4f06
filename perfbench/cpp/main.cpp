/**
 * @file
 * The benchmark executable that perfbench/run.py builds and drives.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--spans-out FILE]
 *
 * Prints one JSON object on its last stdout line: the rep counts,
 * attempted/failed operations, the deterministic outputs run.py checks
 * against perfbench/pinned.json, invariant problems, and the metrics.
 * With --trace 1 and --spans-out, the traced reps' spans are written
 * to FILE when the run ends.
 */

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

const std::map<std::string, Report (*)(const RunOptions&)> kWorkloads{
    {"sim_churn_10k", run_sim_churn},
    {"sched_replay_2k5", run_sched_replay},
    {"paper_pipeline", run_paper_pipeline},
};

std::uint64_t
parse_u64(const std::string& flag, const std::string& text)
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno == ERANGE)
        throw std::invalid_argument(flag + " wants an unsigned integer, got '" +
                                    text + "'");
    return v;
}

std::string
json_number(double x)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

std::string
json_metrics(const Metrics& metrics)
{
    std::string out = "{";
    for (const auto& [name, m] : metrics) {
        out += (out.size() > 1 ? ", " : "") + json_string(name) +
               ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
    }
    return out + "}";
}

int
run(int argc, char** argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::invalid_argument("expected --flag value pairs");
        args[flag.substr(2)] = argv[i + 1];
    }
    for (const auto& [flag, value] : args) {
        if (flag != "workload" && flag != "seed" && flag != "seconds" &&
            flag != "trace" && flag != "spans-out")
            throw std::invalid_argument("unknown flag --" + flag);
    }
    const auto workload = kWorkloads.find(args["workload"]);
    if (workload == kWorkloads.end())
        throw std::invalid_argument("unknown --workload '" +
                                    args["workload"] + "'");
    RunOptions opts;
    opts.seed = parse_u64("--seed", args["seed"]);
    opts.seconds = static_cast<double>(
        parse_u64("--seconds", args["seconds"]));
    const std::uint64_t trace = parse_u64("--trace", args["trace"]);
    if (trace > 1)
        throw std::invalid_argument("--trace must be 0 or 1");
    opts.trace = trace == 1;

    const Report report = workload->second(opts);

    for (const auto& line : report.notes)
        std::cout << "# " << line << '\n';
    if (opts.trace && args.count("spans-out")) {
        std::ofstream spans(args["spans-out"]);
        spans << std::setprecision(9) << "[";
        for (std::size_t i = 0; i < report.tracers.size(); ++i) {
            spans << (i ? ",\n" : "\n");
            report.tracers[i]->write_json(spans);
        }
        spans << "]\n";
        if (!spans)
            throw std::runtime_error("cannot write " + args["spans-out"]);
    }

    std::string outputs = "{";
    for (const auto& [key, value] : report.outputs)
        outputs += (outputs.size() > 1 ? ", " : "") + json_string(key) +
                   ": " + json_string(value);
    outputs += "}";
    std::string problems = "[";
    for (const auto& p : report.problems)
        problems += (problems.size() > 1 ? ", " : "") + json_string(p);
    problems += "]";

    std::cout << "{\"workload\": " << json_string(workload->first)
              << ", \"reps\": " << report.reps
              << ", \"traced_reps\": " << report.traced_reps
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed
              << ", \"outputs\": " << outputs
              << ", \"problems\": " << problems
              << ", \"end_to_end\": " << json_metrics(report.end_to_end)
              << ", \"per_layer\": " << json_metrics(report.per_layer)
              << "}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }
}
