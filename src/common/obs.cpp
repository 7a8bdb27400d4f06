#include "common/obs.hpp"

#ifndef IMC_OBS_DISABLED

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/cli.hpp"
#include "common/error.hpp"

namespace imc::obs {

namespace {

// One global registry behind every entry point. Names are looked up
// under a single mutex — fine at the rates the library records
// (per-request / per-build / per-chain, never per simulated event) —
// while counter increments land on atomics so concurrent recorders
// of the *same* name never serialize on the value itself.

std::atomic<bool> g_enabled{false};

struct TraceEvent {
    std::string name;
    int tid = 0;
    std::uint64_t ts_us = 0;
    std::uint64_t dur_us = 0; // complete events only
    bool is_counter = false;
    double value = 0.0; // counter events only
};

/** Hard cap so a runaway trace cannot exhaust memory. */
constexpr std::size_t kMaxTraceEvents = 1u << 20;

/** Quantiles every histogram exports, as (key, q in [0, 100]). */
constexpr std::pair<const char*, double> kQuantiles[] = {
    {"p50", 50.0}, {"p90", 90.0}, {"p99", 99.0}};

struct Registry {
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>>
        counters;
    std::map<std::string, double> gauges;
    std::map<std::string, LatencyRecorder> histograms;
    std::vector<TraceEvent> events;
    std::uint64_t dropped_events = 0;
    std::map<std::thread::id, int> thread_ids;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

Registry&
registry()
{
    static Registry r;
    return r;
}

std::uint64_t
now_us()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - registry().epoch)
            .count());
}

/** Small stable id of the calling thread (track id in the trace). */
int
tid_of_this_thread(Registry& r)
{
    // Caller holds r.mutex.
    const auto id = std::this_thread::get_id();
    const auto it = r.thread_ids.find(id);
    if (it != r.thread_ids.end())
        return it->second;
    const int tid = static_cast<int>(r.thread_ids.size());
    r.thread_ids.emplace(id, tid);
    return tid;
}

void
push_event(TraceEvent event)
{
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    if (r.events.size() >= kMaxTraceEvents) {
        ++r.dropped_events;
        return;
    }
    event.tid = tid_of_this_thread(r);
    r.events.push_back(std::move(event));
}

/** Minimal JSON string escaping (names are plain ASCII in practice). */
std::string
json_escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                // imc-lint: allow(banned-printf): \uXXXX escape of a
                // control byte into a sized stack buffer for the
                // JSON exporter; not user-facing output.
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Shortest round-trip double representation, JSON-safe. */
std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "null"; // cannot appear in sums; belt and braces
    char buf[64];
    // imc-lint: allow(banned-printf): %.17g is the shortest exact
    // round-trip double form for the JSON exporter; sized stack
    // buffer, never user-facing.
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
set_enabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
count(const std::string& name, std::uint64_t delta)
{
    if (!enabled())
        return;
    Registry& r = registry();
    std::atomic<std::uint64_t>* counter = nullptr;
    {
        const std::lock_guard<std::mutex> lock(r.mutex);
        auto& slot = r.counters[name];
        if (!slot)
            slot = std::make_unique<std::atomic<std::uint64_t>>(0);
        counter = slot.get();
    }
    counter->fetch_add(delta, std::memory_order_relaxed);
}

void
gauge_set(const std::string& name, double value)
{
    if (!enabled())
        return;
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.gauges[name] = value;
}

void
gauge_max(const std::string& name, double value)
{
    if (!enabled())
        return;
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    const auto [it, inserted] = r.gauges.emplace(name, value);
    if (!inserted && value > it->second)
        it->second = value;
}

void
observe(const std::string& name, double value)
{
    if (!enabled())
        return;
    if (!std::isfinite(value) || value < 0.0) {
        count("obs.rejected_samples");
        return;
    }
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.histograms[name].add(value);
}

void
trace_counter(const std::string& name, double value)
{
    if (!enabled() || !std::isfinite(value))
        return;
    TraceEvent event;
    event.name = name;
    event.ts_us = now_us();
    event.is_counter = true;
    event.value = value;
    push_event(std::move(event));
}

Span::Span(std::string_view name)
{
    if (!enabled())
        return;
    name_ = name;
    start_us_ = now_us();
    active_ = true;
}

Span::~Span()
{
    if (!active_ || !enabled())
        return;
    const std::uint64_t end_us = now_us();
    const std::uint64_t dur = end_us - start_us_;
    TraceEvent event;
    event.name = name_;
    event.ts_us = start_us_;
    event.dur_us = dur;
    push_event(std::move(event));
    observe(name_ + ".us", static_cast<double>(dur));
}

std::uint64_t
counter_value(const std::string& name)
{
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.counters.find(name);
    return it != r.counters.end()
               ? it->second->load(std::memory_order_relaxed)
               : 0;
}

double
gauge_value(const std::string& name)
{
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.gauges.find(name);
    return it != r.gauges.end() ? it->second : 0.0;
}

LatencyRecorder
histogram_snapshot(const std::string& name)
{
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.histograms.find(name);
    return it != r.histograms.end() ? it->second : LatencyRecorder{};
}

std::size_t
trace_event_count()
{
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    return r.events.size();
}

void
write_metrics_text(std::ostream& os)
{
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    os << "# imc::obs metrics\n";
    for (const auto& [name, counter] : r.counters) {
        os << "counter " << name << ' '
           << counter->load(std::memory_order_relaxed) << '\n';
    }
    if (r.dropped_events > 0) {
        os << "counter obs.dropped_trace_events " << r.dropped_events
           << '\n';
    }
    for (const auto& [name, value] : r.gauges)
        os << "gauge " << name << ' ' << json_number(value) << '\n';
    for (const auto& [name, h] : r.histograms) {
        os << "hist " << name << " count " << h.count() << " sum "
           << json_number(h.sum()) << " min " << json_number(h.min())
           << " max " << json_number(h.max()) << " mean "
           << json_number(h.mean());
        for (const auto& [key, q] : kQuantiles)
            os << ' ' << key << ' ' << json_number(h.quantile(q));
        os << '\n';
    }
}

void
write_metrics_json(std::ostream& os)
{
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, counter] : r.counters) {
        os << (first ? "" : ",") << "\n    \"" << json_escape(name)
           << "\": " << counter->load(std::memory_order_relaxed);
        first = false;
    }
    os << "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto& [name, value] : r.gauges) {
        os << (first ? "" : ",") << "\n    \"" << json_escape(name)
           << "\": " << json_number(value);
        first = false;
    }
    os << "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : r.histograms) {
        os << (first ? "" : ",") << "\n    \"" << json_escape(name)
           << "\": {\"count\": " << h.count()
           << ", \"sum\": " << json_number(h.sum())
           << ", \"min\": " << json_number(h.min())
           << ", \"max\": " << json_number(h.max());
        for (const auto& [key, q] : kQuantiles)
            os << ", \"" << key << "\": " << json_number(h.quantile(q));
        os << "}";
        first = false;
    }
    os << "\n  }\n}\n";
}

void
write_trace_json(std::ostream& os)
{
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    os << "[";
    bool first = true;
    for (const auto& e : r.events) {
        os << (first ? "\n" : ",\n");
        if (e.is_counter) {
            os << "{\"name\": \"" << json_escape(e.name)
               << "\", \"cat\": \"imc\", \"ph\": \"C\", \"ts\": "
               << e.ts_us << ", \"pid\": 1, \"tid\": " << e.tid
               << ", \"args\": {\"value\": " << json_number(e.value)
               << "}}";
        } else {
            os << "{\"name\": \"" << json_escape(e.name)
               << "\", \"cat\": \"imc\", \"ph\": \"X\", \"ts\": "
               << e.ts_us << ", \"dur\": " << e.dur_us
               << ", \"pid\": 1, \"tid\": " << e.tid << "}";
        }
        first = false;
    }
    os << (first ? "]" : "\n]") << '\n';
}

void
reset()
{
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.counters.clear();
    r.gauges.clear();
    r.histograms.clear();
    r.events.clear();
    r.dropped_events = 0;
    // thread_ids and epoch survive: track ids stay stable per thread.
}

Session::Session(const Cli& cli)
    : metrics_stdout_(cli.has("metrics")),
      metrics_path_(cli.get("metrics-out", "")),
      trace_path_(cli.get("trace-out", "")),
      uncaught_(std::uncaught_exceptions())
{
    if (metrics_stdout_ || !metrics_path_.empty() ||
        !trace_path_.empty())
        set_enabled(true);
}

Session::~Session()
{
    if (!metrics_stdout_ && metrics_path_.empty() &&
        trace_path_.empty())
        return;
    // Exports happen at scope exit so the dump covers the whole run.
    const bool unwinding = std::uncaught_exceptions() > uncaught_;
    if (metrics_stdout_ && !unwinding) {
        std::cout << '\n';
        write_metrics_text(std::cout);
    }
    if (!metrics_path_.empty()) {
        std::ofstream os(metrics_path_);
        if (os) {
            if (metrics_path_.size() >= 5 &&
                metrics_path_.compare(metrics_path_.size() - 5, 5,
                                      ".json") == 0)
                write_metrics_json(os);
            else
                write_metrics_text(os);
        } else {
            std::cerr << "obs: cannot open metrics file '"
                      << metrics_path_ << "'\n";
        }
    }
    if (!trace_path_.empty()) {
        std::ofstream os(trace_path_);
        if (os)
            write_trace_json(os);
        else
            std::cerr << "obs: cannot open trace file '" << trace_path_
                      << "'\n";
    }
    set_enabled(false);
}

} // namespace imc::obs

#endif // IMC_OBS_DISABLED
