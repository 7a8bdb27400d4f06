#include "core/scorer.hpp"

#include <algorithm>

#include "bubble/bubble.hpp"
#include "common/error.hpp"
#include "common/obs.hpp"

namespace imc::core {

workload::AppSpec
reporter_spec()
{
    workload::AppSpec s;
    s.name = "bubble-reporter";
    s.abbrev = "probe";
    s.suite = "bubble";
    s.kind = workload::AppKind::Batch;
    s.demand = bubble::bubble_demand(bubble::kReporterPressure);
    s.batch.total_work = bubble::kReporterWork;
    s.batch.segments = 30;
    s.noise_sigma = 0.01;
    return s;
}

workload::AppSpec
bubble_as_app(double pressure)
{
    workload::AppSpec s;
    s.name = "bubble";
    s.abbrev = "bubble";
    s.suite = "bubble";
    s.kind = workload::AppKind::Batch;
    s.demand = bubble::bubble_demand(pressure);
    s.batch.total_work = 1000.0; // effectively endless; co-run restarts
    s.batch.segments = 1000;
    s.noise_sigma = 0.01;
    return s;
}

BubbleScorer::BubbleScorer(workload::RunConfig cfg,
                           workload::RunService& service)
    : cfg_(std::move(cfg)), service_(service)
{
    IMC_OBS_SPAN(span, "scorer.calibrate");
    const auto probe = reporter_spec();
    const std::vector<sim::NodeId> probe_node{0};

    // One batch: the probe solo baseline plus every calibration
    // pressure level.
    std::vector<workload::RunRequest> reqs;
    workload::RunConfig solo_cfg = cfg_;
    solo_cfg.salt = hash_combine(cfg_.salt, hash_string("probe-solo"));
    reqs.push_back(
        workload::solo_time_request(probe, probe_node, solo_cfg));
    for (int p = 1; p <= bubble::kMaxPressure; ++p) {
        workload::RunConfig run_cfg = cfg_;
        run_cfg.salt = hash_combine(
            cfg_.salt, hash_combine(hash_string("probe-calib"),
                                    static_cast<std::uint64_t>(p)));
        std::vector<workload::ExtraTenant> extra{
            {0, bubble::bubble_demand(static_cast<double>(p))}};
        reqs.push_back(workload::app_time_request(probe, probe_node,
                                                  extra, run_cfg));
    }
    IMC_OBS_COUNT("scorer.calibration_runs", reqs.size());
    const auto times = service_.run_all(reqs);

    probe_solo_time_ = times[0];
    invariant(probe_solo_time_ > 0.0,
              "BubbleScorer: nonpositive probe solo time");

    degradation_.push_back(1.0); // pressure 0
    for (int p = 1; p <= bubble::kMaxPressure; ++p) {
        degradation_.push_back(times[static_cast<std::size_t>(p)] /
                               probe_solo_time_);
    }

    // Build a strictly increasing degradation -> pressure inverse.
    inverse_x_.push_back(degradation_[0]);
    inverse_y_.push_back(0.0);
    for (int p = 1; p <= bubble::kMaxPressure; ++p) {
        double d = degradation_[static_cast<std::size_t>(p)];
        if (d <= inverse_x_.back())
            d = inverse_x_.back() + 1e-6; // enforce monotonicity
        inverse_x_.push_back(d);
        inverse_y_.push_back(static_cast<double>(p));
    }
}

workload::RunRequest
BubbleScorer::probe_request(const workload::AppSpec& app,
                            const std::vector<sim::NodeId>& nodes,
                            sim::NodeId node) const
{
    workload::RunConfig run_cfg = cfg_;
    run_cfg.salt = hash_combine(
        cfg_.salt,
        hash_combine(hash_string("probe-score:" + app.abbrev),
                     static_cast<std::uint64_t>(node)));
    return workload::corun_time_request(
        reporter_spec(), {node}, {workload::Deployment{app, nodes}},
        run_cfg);
}

double
BubbleScorer::score(const workload::AppSpec& app,
                    const std::vector<sim::NodeId>& nodes) const
{
    require(!nodes.empty(), "BubbleScorer::score: empty deployment");
    IMC_OBS_SPAN(span, "scorer.score:" + app.abbrev);
    // Probe every node of the deployment in one batch.
    std::vector<workload::RunRequest> reqs;
    reqs.reserve(nodes.size());
    for (sim::NodeId node : nodes)
        reqs.push_back(probe_request(app, nodes, node));
    IMC_OBS_COUNT("scorer.probe_runs", reqs.size());
    const auto times = service_.run_all(reqs);

    const LinearInterpolator inverse(inverse_x_, inverse_y_);
    double sum = 0.0;
    for (double t : times)
        sum += inverse(t / probe_solo_time_);
    return sum / static_cast<double>(nodes.size());
}

} // namespace imc::core
