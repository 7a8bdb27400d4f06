#include "core/measure.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/obs.hpp"

namespace imc::core {

CountingMeasure::CountingMeasure(MeasureFn inner, PrefetchFn prefetch)
    : inner_(std::move(inner)), prefetch_(std::move(prefetch))
{
    require(static_cast<bool>(inner_), "CountingMeasure: null inner");
}

double
CountingMeasure::operator()(int pressure, int nodes)
{
    if (nodes == 0)
        return 1.0; // by definition; free of charge
    const auto key = std::make_pair(pressure, nodes);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            IMC_OBS_COUNT("measure.cache_hits");
            return it->second;
        }
    }
    // Measure outside the lock so independent settings (row-parallel
    // profiling) proceed concurrently. Two racers on the same setting
    // compute the same value (the inner measure is pure, and a
    // service-backed inner runs the cluster job once anyway); only the
    // first arrival is counted.
    const double value = inner_(pressure, nodes);
    bool counted = false;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto [it, inserted] = cache_.emplace(key, value);
        counted = inserted;
        if (inserted)
            ++measured_;
    }
    if (counted)
        IMC_OBS_COUNT("measure.measured");
    return value;
}

void
CountingMeasure::prefetch(const std::vector<Setting>& settings)
{
    if (!prefetch_)
        return;
    std::vector<Setting> missing;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& s : settings) {
            if (s.second >= 1 && cache_.find(s) == cache_.end())
                missing.push_back(s);
        }
    }
    if (!missing.empty()) {
        IMC_OBS_COUNT("measure.prefetched", missing.size());
        prefetch_(missing);
    }
}

int
CountingMeasure::measured() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return measured_;
}

namespace {

/** The loaded run behind one homogeneous setting. */
workload::RunRequest
loaded_request(const workload::AppSpec& app,
               const std::vector<sim::NodeId>& nodes,
               const workload::RunConfig& cfg,
               const std::vector<double>& grid, int pressure,
               int node_count)
{
    require(pressure >= 1 && pressure <= static_cast<int>(grid.size()),
            "measure: pressure level out of grid");
    require(node_count >= 1 &&
                node_count <= static_cast<int>(nodes.size()),
            "measure: node count out of range");
    const double bubble = grid[static_cast<std::size_t>(pressure - 1)];
    std::vector<double> pressures(
        static_cast<std::size_t>(
            *std::max_element(nodes.begin(), nodes.end()) + 1),
        0.0);
    for (int k = 0; k < node_count; ++k)
        pressures[static_cast<std::size_t>(
            nodes[static_cast<std::size_t>(k)])] = bubble;

    workload::RunConfig run_cfg = cfg;
    run_cfg.salt = hash_combine(
        cfg.salt,
        hash_combine(static_cast<std::uint64_t>(bubble * 64.0),
                     static_cast<std::uint64_t>(node_count)));
    return workload::app_time_request(
        app, nodes, workload::bubble_tenants(pressures), run_cfg);
}

/** The shared solo-baseline run. */
workload::RunRequest
solo_request(const workload::AppSpec& app,
             const std::vector<sim::NodeId>& nodes,
             const workload::RunConfig& cfg)
{
    workload::RunConfig solo_cfg = cfg;
    solo_cfg.salt = hash_combine(cfg.salt, hash_string("solo"));
    return workload::solo_time_request(app, nodes, solo_cfg);
}

/** The loaded run behind one heterogeneous pressure vector. */
workload::RunRequest
hetero_request(const workload::AppSpec& app,
               const std::vector<sim::NodeId>& nodes,
               const workload::RunConfig& cfg,
               const std::vector<double>& pressures)
{
    require(pressures.size() == nodes.size(),
            "hetero measure: pressure list size mismatch");
    std::vector<double> by_node(
        static_cast<std::size_t>(
            *std::max_element(nodes.begin(), nodes.end()) + 1),
        0.0);
    std::uint64_t salt = hash_string("hetero");
    for (std::size_t k = 0; k < nodes.size(); ++k) {
        by_node[static_cast<std::size_t>(nodes[k])] = pressures[k];
        salt = hash_combine(
            salt, static_cast<std::uint64_t>(pressures[k] * 64.0));
    }
    workload::RunConfig run_cfg = cfg;
    run_cfg.salt = hash_combine(cfg.salt, salt);
    return workload::app_time_request(
        app, nodes, workload::bubble_tenants(by_node), run_cfg);
}

} // namespace

MeasureFn
make_cluster_measure(const workload::AppSpec& app,
                     const std::vector<sim::NodeId>& nodes,
                     const workload::RunConfig& cfg,
                     const std::vector<double>& grid,
                     workload::RunService& service)
{
    require(!grid.empty(), "make_cluster_measure: empty grid");
    auto* svc = &service;
    return [app, nodes, cfg, grid, svc](int pressure, int node_count) {
        if (node_count == 0)
            return 1.0;
        // Submit both runs before waiting so a cold solo baseline
        // overlaps with the loaded run.
        const auto loaded = svc->submit(loaded_request(
            app, nodes, cfg, grid, pressure, node_count));
        const double solo = svc->run(solo_request(app, nodes, cfg));
        invariant(solo > 0.0,
                  "make_cluster_measure: nonpositive solo time");
        return loaded.get() / solo;
    };
}

CountingMeasure::PrefetchFn
make_cluster_prefetch(const workload::AppSpec& app,
                      const std::vector<sim::NodeId>& nodes,
                      const workload::RunConfig& cfg,
                      const std::vector<double>& grid,
                      workload::RunService& service)
{
    require(!grid.empty(), "make_cluster_prefetch: empty grid");
    auto* svc = &service;
    return [app, nodes, cfg, grid,
            svc](const std::vector<CountingMeasure::Setting>& batch) {
        svc->submit(solo_request(app, nodes, cfg));
        for (const auto& [pressure, node_count] : batch) {
            svc->submit(loaded_request(app, nodes, cfg, grid, pressure,
                                       node_count));
        }
    };
}

HeteroMeasureFn
make_cluster_hetero_measure(const workload::AppSpec& app,
                            const std::vector<sim::NodeId>& nodes,
                            const workload::RunConfig& cfg,
                            workload::RunService& service)
{
    auto* svc = &service;
    return [app, nodes, cfg, svc](const std::vector<double>& pressures) {
        const auto loaded =
            svc->submit(hetero_request(app, nodes, cfg, pressures));
        const double solo = svc->run(solo_request(app, nodes, cfg));
        invariant(solo > 0.0,
                  "make_cluster_hetero_measure: nonpositive solo time");
        return loaded.get() / solo;
    };
}

} // namespace imc::core
