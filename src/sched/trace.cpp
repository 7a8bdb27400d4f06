#include "sched/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "workload/catalog.hpp"

namespace imc::sched {

namespace {

constexpr const char* kMagic = "imc-trace v1";

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

/**
 * After the reads of a line, require that nothing but whitespace
 * remains (strict parsing: trailing garbage is rejected, matching the
 * PR 3 model-parsing hardening).
 */
void
require_fully_consumed(std::istringstream& ss, const std::string& what)
{
    ss.clear();
    std::string trailing;
    if (ss >> trailing) {
        throw ConfigError("parse_trace: trailing garbage '" + trailing +
                          "' on " + what + " line");
    }
}

const char*
keyword_of(EventKind kind)
{
    switch (kind) {
      case EventKind::kArrive:
        return "arrive";
      case EventKind::kDepart:
        return "depart";
      case EventKind::kCrash:
        return "crash";
      case EventKind::kJoin:
        return "join";
    }
    throw LogicBug("keyword_of: unknown EventKind");
}

} // namespace

std::string
serialize_trace(const Trace& trace)
{
    std::ostringstream os;
    os << kMagic << '\n';
    os << "# scheduler event trace; see sched/trace.hpp for format\n";
    os << std::setprecision(17);
    os << "cluster " << trace.num_nodes << ' ' << trace.slots_per_node
       << '\n';
    for (const auto& e : trace.events) {
        os << keyword_of(e.kind) << ' ' << e.time;
        switch (e.kind) {
          case EventKind::kArrive:
            os << ' ' << e.id << ' ' << e.app << ' ' << e.units << ' '
               << e.slo;
            break;
          case EventKind::kDepart:
            os << ' ' << e.id;
            break;
          case EventKind::kCrash:
          case EventKind::kJoin:
            os << ' ' << e.node;
            break;
        }
        os << '\n';
    }
    os << "end\n";
    return os.str();
}

Trace
parse_trace(std::istream& is)
{
    std::string line;
    require(next_line(is, line) && line == kMagic,
            "parse_trace: bad magic/version line");

    Trace trace;
    {
        require(next_line(is, line),
                "parse_trace: unexpected end of input, expected "
                "'cluster'");
        std::istringstream ss(line);
        std::string head;
        require(static_cast<bool>(ss >> head) && head == "cluster",
                "parse_trace: expected 'cluster', got '" + head + "'");
        require(static_cast<bool>(ss >> trace.num_nodes >>
                                  trace.slots_per_node),
                "parse_trace: bad cluster line");
        require_fully_consumed(ss, "cluster");
        require(trace.num_nodes >= 1,
                "parse_trace: cluster needs at least one node");
        require(trace.slots_per_node >= 1,
                "parse_trace: cluster needs at least one slot");
    }

    std::set<std::int64_t> live_ids;
    std::set<std::int64_t> seen_ids;
    double last_time = 0.0;
    bool ended = false;
    while (next_line(is, line)) {
        std::istringstream ss(line);
        std::string head;
        ss >> head;
        if (ended) {
            throw ConfigError("parse_trace: content after 'end': '" +
                              line + "'");
        }
        if (head == "end") {
            require_fully_consumed(ss, "end");
            ended = true;
            continue;
        }
        TraceEvent e;
        if (head == "arrive") {
            e.kind = EventKind::kArrive;
            require(static_cast<bool>(ss >> e.time >> e.id >> e.app >>
                                      e.units >> e.slo),
                    "parse_trace: bad arrive line: '" + line + "'");
            require_fully_consumed(ss, "arrive");
            require(e.units >= 1, "parse_trace: arrive with no units");
            require(e.units <= trace.num_nodes,
                    "parse_trace: arrive with more units than nodes");
            require(seen_ids.insert(e.id).second,
                    "parse_trace: duplicate arrive id " +
                        std::to_string(e.id));
            live_ids.insert(e.id);
            // The abbreviation must resolve now, not mid-replay.
            workload::find_app(e.app);
        } else if (head == "depart") {
            e.kind = EventKind::kDepart;
            require(static_cast<bool>(ss >> e.time >> e.id),
                    "parse_trace: bad depart line: '" + line + "'");
            require_fully_consumed(ss, "depart");
            require(live_ids.erase(e.id) == 1,
                    "parse_trace: depart of unknown or already "
                    "departed id " +
                        std::to_string(e.id));
        } else if (head == "crash" || head == "join") {
            e.kind = head == "crash" ? EventKind::kCrash
                                     : EventKind::kJoin;
            require(static_cast<bool>(ss >> e.time >> e.node),
                    "parse_trace: bad " + head + " line: '" + line +
                        "'");
            require_fully_consumed(ss, head);
            require(e.node >= 0 && e.node < trace.num_nodes,
                    "parse_trace: " + head + " node out of range");
        } else {
            throw ConfigError("parse_trace: unknown keyword '" + head +
                              "'");
        }
        require(e.time >= last_time,
                "parse_trace: event times must be non-decreasing");
        last_time = e.time;
        trace.events.push_back(std::move(e));
    }
    require(ended, "parse_trace: missing 'end' line");
    return trace;
}

Trace
load_trace_file(const std::string& path)
{
    std::ifstream is(path);
    require(static_cast<bool>(is),
            "load_trace_file: cannot open '" + path + "'");
    return parse_trace(is);
}

void
save_trace_file(const std::string& path, const Trace& trace)
{
    std::ofstream os(path);
    require(static_cast<bool>(os),
            "save_trace_file: cannot open '" + path + "'");
    os << serialize_trace(trace);
    require(static_cast<bool>(os),
            "save_trace_file: write failed for '" + path + "'");
}

std::vector<workload::AppSpec>
default_trace_apps()
{
    // Two of each archetype, spanning low to high bubble scores, so
    // generated mixes exercise the full interference range without
    // profiling the whole catalog.
    return {workload::find_app("M.lmps"), workload::find_app("N.cg"),
            workload::find_app("H.KM"),   workload::find_app("S.WC"),
            workload::find_app("C.gcc"),  workload::find_app("C.mcf")};
}

Trace
generate_trace(const TraceGenOptions& opts)
{
    require(opts.num_nodes >= 1, "generate_trace: need >= 1 node");
    require(opts.slots_per_node >= 1,
            "generate_trace: need >= 1 slot per node");
    require(opts.duration > 0.0,
            "generate_trace: duration must be positive");
    require(opts.arrival_rate > 0.0,
            "generate_trace: arrival_rate must be positive");
    require(opts.mean_lifetime > 0.0,
            "generate_trace: mean_lifetime must be positive");
    require(opts.max_units >= 1 && opts.max_units <= opts.num_nodes,
            "generate_trace: max_units must be in [1, num_nodes]");
    require(opts.slo_fraction >= 0.0 && opts.slo_fraction <= 1.0,
            "generate_trace: slo_fraction must be in [0, 1]");
    require(opts.crash_rate >= 0.0,
            "generate_trace: crash_rate must be >= 0");
    require(opts.service_fraction >= 0.0 &&
                opts.service_fraction <= 1.0,
            "generate_trace: service_fraction must be in [0, 1]");

    const std::vector<workload::AppSpec> apps =
        opts.apps.empty() ? default_trace_apps() : opts.apps;
    const std::vector<workload::AppSpec>& serve_pool =
        workload::service_apps();

    Trace trace;
    trace.num_nodes = opts.num_nodes;
    trace.slots_per_node = opts.slots_per_node;

    // Both processes run twice over the same seeded streams: once to
    // count the events, then into a vector of exactly that size (a
    // growing one leaves megabytes of freed blocks behind at 10k
    // arrivals). The events are then stably sorted by time, so
    // equal-time events keep their creation order.
    const Rng master(opts.seed);
    const auto run_processes = [&](auto&& emit) {
        // App arrivals (Poisson) with lognormal lifetimes.
        {
            Rng rng = master.fork("arrivals");
            double t = 0.0;
            std::int64_t next_id = 1;
            for (;;) {
                // Exponential inter-arrival via inverse transform.
                t += -std::log(1.0 - rng.uniform()) / opts.arrival_rate;
                if (t >= opts.duration)
                    break;
                TraceEvent arrive;
                arrive.kind = EventKind::kArrive;
                arrive.time = t;
                arrive.id = next_id++;
                // Gated so service_fraction == 0 consumes no draw and
                // existing seeds stay byte-identical.
                const bool service =
                    opts.service_fraction > 0.0 &&
                    rng.bernoulli(opts.service_fraction);
                arrive.app =
                    service
                        ? serve_pool[rng.uniform_index(serve_pool.size())]
                              .abbrev
                        : apps[rng.uniform_index(apps.size())].abbrev;
                arrive.units = static_cast<int>(
                    rng.uniform_int(1, opts.max_units));
                arrive.slo = rng.bernoulli(opts.slo_fraction)
                                 ? rng.uniform(1.15, 1.6)
                                 : 0.0;
                const double lifetime =
                    opts.mean_lifetime *
                    rng.lognormal_factor(opts.lifetime_sigma);
                emit(arrive);
                if (t + lifetime < opts.duration) {
                    TraceEvent depart;
                    depart.kind = EventKind::kDepart;
                    depart.time = t + lifetime;
                    depart.id = arrive.id;
                    // Apps alive past the horizon simply never depart.
                    emit(depart);
                }
            }
        }

        // Node crash/repair process: walk crash times chronologically,
        // tracking which nodes are down so a crash always hits a live
        // node and a join always revives a down one.
        if (opts.crash_rate > 0.0) {
            Rng rng = master.fork("crashes");
            std::vector<char> down(
                static_cast<std::size_t>(opts.num_nodes), 0);
            int down_count = 0;
            // (time, node) pending joins, earliest first.
            std::vector<std::pair<double, sim::NodeId>> pending;
            double t = 0.0;
            for (;;) {
                t += -std::log(1.0 - rng.uniform()) / opts.crash_rate;
                if (t >= opts.duration)
                    break;
                // Apply repairs that completed before this crash.
                std::sort(pending.begin(), pending.end());
                while (!pending.empty() && pending.front().first <= t) {
                    const auto [jt, jnode] = pending.front();
                    pending.erase(pending.begin());
                    down[static_cast<std::size_t>(jnode)] = 0;
                    --down_count;
                    TraceEvent join;
                    join.kind = EventKind::kJoin;
                    join.time = jt;
                    join.node = jnode;
                    emit(join);
                }
                // Never take down more than half the cluster (a trace
                // that loses quorum is a different experiment).
                if (down_count >= opts.num_nodes / 2 ||
                    down_count >= opts.num_nodes - 1)
                    continue;
                // Pick the k-th live node.
                auto k = rng.uniform_index(static_cast<std::uint64_t>(
                    opts.num_nodes - down_count));
                sim::NodeId node = -1;
                for (int n = 0; n < opts.num_nodes; ++n) {
                    if (down[static_cast<std::size_t>(n)])
                        continue;
                    if (k == 0) {
                        node = n;
                        break;
                    }
                    --k;
                }
                down[static_cast<std::size_t>(node)] = 1;
                ++down_count;
                TraceEvent crash;
                crash.kind = EventKind::kCrash;
                crash.time = t;
                crash.node = node;
                emit(crash);
                const double repair =
                    opts.mean_repair * rng.lognormal_factor(0.5);
                if (t + repair < opts.duration)
                    pending.emplace_back(t + repair, node);
            }
            // Repairs completing before the horizon with no later crash
            // still join.
            std::sort(pending.begin(), pending.end());
            for (const auto& [jt, jnode] : pending) {
                TraceEvent join;
                join.kind = EventKind::kJoin;
                join.time = jt;
                join.node = jnode;
                emit(join);
            }
        }
    };
    std::size_t count = 0;
    run_processes([&count](const TraceEvent&) { ++count; });
    std::vector<TraceEvent>& events = trace.events;
    events.reserve(count);
    run_processes(
        [&events](TraceEvent e) { events.push_back(std::move(e)); });

    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         return a.time < b.time;
                     });
    return trace;
}

} // namespace imc::sched
