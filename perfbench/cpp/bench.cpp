#include "bench.hpp"

#include <sys/mman.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/stats.hpp"

namespace perfbench {

namespace {

/** The workloads, as bits of LayerMetric::measured_on. */
constexpr unsigned kSim = 1;
constexpr unsigned kSched = 2;
constexpr unsigned kPipeline = 4;

/** One per-layer metric of BENCHMARK.json and the workloads measuring it. */
struct LayerMetric {
    const char* name;
    const char* unit;
    unsigned measured_on;
};

const LayerMetric kPerLayer[] = {
    {"events_per_s", "1/s", kSim},
    {"sim.set_demand_s", "s", kSim},
    {"sim.compute_s", "s", kSim},
    {"sim.dispatch_s", "s", kSim},
    {"sim.callback_s", "s", kSim},
    {"sim.add_tenant_s", "s", kSim},
    {"sim.events", "count", kSim},
    {"sim.contention_solves", "count", kSim},
    {"sim.proc_reschedules", "count", kSim},
    {"sim.computes", "count", kSim},
    {"sim.bytes_per_node", "B", kSim},
    {"decisions_per_s", "1/s", kSched},
    {"decision_p50_ms", "ms", kSched},
    {"decision_p99_ms", "ms", kSched},
    {"sched_objective", "1", kSched},
    {"oracle_gap_pct", "%", kSched},
    {"sched.arrive_ms.p50", "ms", kSched},
    {"sched.arrive_ms.p99", "ms", kSched},
    {"sched.depart_ms.p50", "ms", kSched},
    {"sched.depart_ms.p99", "ms", kSched},
    {"sched.crash_ms.p50", "ms", kSched},
    {"placement.predict_calls", "count", kSched},
    {"placement.predict_s", "s", kSched},
    {"sched.non_predict_s", "s", kSched},
    {"sched.admitted", "count", kSched},
    {"sched.rejected", "count", kSched},
    {"sched.evictions", "count", kSched},
    {"sched.moved_units", "count", kSched},
    {"placement.oracle_s", "s", kSched},
    {"placement.oracle_proposals_per_s", "1/s", kSched},
    {"core.model_build_s", "s", kSched | kPipeline},
    {"core.model_build_runs", "count", kSched | kPipeline},
    {"predict_err_pct", "%", kPipeline},
    {"placement_speedup", "x", kPipeline},
    {"workload.validate_s", "s", kPipeline},
    {"workload.validate_runs", "count", kPipeline},
    {"placement.anneal_s", "s", kPipeline},
    {"placement.anneal_proposals", "count", kPipeline},
    {"workload.measure_s", "s", kPipeline},
    {"workload.runs_submitted", "count", kPipeline},
    {"workload.runs_executed", "count", kPipeline},
    {"workload.cache_hit_frac", "1", kPipeline},
    {"trace_overhead_pct", "%", kSim | kSched | kPipeline},
};

} // namespace

void
zero_unmeasured(const std::string& workload, Metrics& per_layer)
{
    const std::map<std::string, unsigned> bit{
        {"sim_churn_10k", kSim},
        {"sched_replay_2k5", kSched},
        {"paper_pipeline", kPipeline},
    };
    for (const LayerMetric& m : kPerLayer) {
        if ((m.measured_on & bit.at(workload)) == 0)
            per_layer[m.name] = {0.0, m.unit};
    }
}

std::string
json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

void
put_medians(Metrics& out, const std::vector<Metrics>& reps)
{
    for (const auto& [name, m] : reps.front()) {
        std::vector<double> xs;
        for (const auto& rep : reps)
            xs.push_back(rep.at(name).value);
        out[name] = {imc::median(xs), m.unit};
    }
}

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpu_seconds()
{
    timespec ts{};
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0)
        throw std::runtime_error("clock_gettime failed");
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Span::Span(Tracer* tracer, std::string name) : tracer_(tracer)
{
    if (!tracer_)
        return;
    Record r;
    r.name = std::move(name);
    r.start = seconds_since(tracer_->origin_);
    r.parent = tracer_->open_.empty()
                   ? -1
                   : static_cast<long>(tracer_->open_.back());
    index_ = tracer_->spans_.size();
    tracer_->spans_.push_back(std::move(r));
    tracer_->open_.push_back(index_);
}

Tracer::Span::~Span()
{
    if (!tracer_)
        return;
    tracer_->spans_[index_].end = seconds_since(tracer_->origin_);
    tracer_->open_.pop_back();
}

Tracer::Aggregate&
Tracer::aggregate(const std::string& name)
{
    return aggregates_[name];
}

double
Tracer::span_seconds(const std::string& name) const
{
    double total = 0.0;
    for (const auto& r : spans_) {
        if (r.name == name)
            total += r.end - r.start;
    }
    return total;
}

void
Tracer::write_json(std::ostream& os) const
{
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Record& r = spans_[i];
        os << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
           << ", \"name\": ";
        os << json_string(r.name);
        os << ", \"start_s\": " << r.start << ", \"end_s\": " << r.end
           << ", \"parent\": " << r.parent << '}';
    }
    os << "],\n \"aggregates\": {";
    bool first = true;
    for (const auto& [name, agg] : aggregates_) {
        os << (first ? "\n  " : ",\n  ");
        first = false;
        os << json_string(name);
        os << ": {\"calls\": " << agg.calls
           << ", \"seconds\": " << agg.seconds << '}';
    }
    os << "}}";
}

double
reference_seconds()
{
    constexpr std::size_t kKeys = 1'000'000;
    constexpr std::size_t kBytes = kKeys * sizeof(std::uint64_t);
    // Mapped and unmapped here rather than taken from the heap, so the
    // buffer never stays resident after the call.
    void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        throw std::runtime_error("mmap failed");
    auto* keys = static_cast<std::uint64_t*>(mem);
    std::uint64_t x = 999;
    for (std::size_t i = 0; i < kKeys; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys[i] = x;
    }
    const double c0 = cpu_seconds();
    std::sort(keys, keys + kKeys);
    const double seconds = cpu_seconds() - c0;
    munmap(mem, kBytes);
    return seconds;
}

void
repeat_for(const RunOptions& opts, int min_reps, Report& report,
           const std::function<void(int, bool)>& rep)
{
    if (opts.trace)
        min_reps = std::max(min_reps, 2);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < min_reps || seconds_since(t0) < opts.seconds;
         ++i) {
        report.reference_s.push_back(reference_seconds());
        reset_peak_rss();
        rep(i, opts.trace && i % 2 == 1);
        report.peak_rss_mb = std::max(report.peak_rss_mb, peak_rss_mb());
    }
    report.reference_s.push_back(reference_seconds());
}

void
top_up_setups(std::vector<double>& setup_s, std::size_t count,
              const std::function<void()>& setup)
{
    while (setup_s.size() < count) {
        const double c0 = cpu_seconds();
        setup();
        setup_s.push_back(cpu_seconds() - c0);
    }
}

std::string
hexfloat(double x)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", x);
    return buf;
}

void
reset_peak_rss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.close();
    if (!clear)
        throw std::runtime_error("cannot reset peak RSS via "
                                 "/proc/self/clear_refs");
}

double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

void
check_same_outputs(Report& report,
                   const std::map<std::string, std::string>& rep)
{
    if (report.outputs.empty()) {
        report.outputs = rep;
        return;
    }
    for (const auto& [key, value] : rep) {
        const auto it = report.outputs.find(key);
        if (it == report.outputs.end() || it->second != value)
            report.problems.push_back("rep output " + key + " = " +
                                      value + " differs from rep 0");
    }
}

void
set_common_metrics(Report& report, const std::vector<double>& setup_s,
                   const std::vector<double>& wall_s,
                   const std::vector<double>& wall_clock_s)
{
    const std::vector<double>& reference_s = report.reference_s;
    const double scale = kReferenceNominal_s / imc::median(reference_s);
    report.end_to_end["setup_s"] = {scale * imc::median(setup_s), "s"};
    report.end_to_end["wall_s"] = {scale * imc::median(wall_s), "s"};
    report.end_to_end["peak_rss_mb"] = {report.peak_rss_mb, "MB"};
    report.notes.push_back("host-speed scale " + std::to_string(scale) +
                           " (setup_s and wall_s are CPU seconds times "
                           "this)");
    for (const auto& [name, xs] :
         {std::pair{"reference sort", &reference_s},
          std::pair{"setup (CPU)", &setup_s},
          std::pair{"timed phase (CPU)", &wall_s},
          std::pair{"timed phase (wall clock)", &wall_clock_s}}) {
        std::string line = name;
        line += " per rep, s:";
        for (const double x : *xs) {
            line += ' ';
            line += std::to_string(x);
        }
        report.notes.push_back(line);
    }
}

} // namespace perfbench
