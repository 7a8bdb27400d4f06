#ifndef IMC_CORE_SCORER_HPP
#define IMC_CORE_SCORER_HPP

/**
 * @file
 * Bubble score measurement (Sections 2.1 and 3.4).
 *
 * How much interference does an application *generate*? Bubble-Up's
 * answer: co-run the bubble itself (as a reporter probe) with the
 * application and observe how much the probe slows down; then invert
 * the probe's own pressure-vs-slowdown calibration curve to express
 * the application's aggressiveness as an equivalent bubble pressure —
 * its bubble score. Because masters and slaves can generate different
 * intensities, the probe is placed on every node of the deployment and
 * the scores are averaged (Section 3.4). Every probe run goes through
 * a workload::RunService.
 */

#include <vector>

#include "common/interp.hpp"
#include "workload/run_service.hpp"
#include "workload/runner.hpp"

namespace imc::core {

/** Measures bubble scores against a fixed cluster configuration. */
class BubbleScorer {
  public:
    /**
     * Build the reporter calibration curve: the probe's normalized
     * time when co-located with bubbles at pressures 0..kMaxPressure.
     * All calibration levels (and the probe solo baseline) are
     * submitted as one batch, so with a multi-threaded @p service
     * they run concurrently — the values are bit-identical at any
     * thread count (each run derives its seed from its own content).
     *
     * @param service measurement backend; must outlive the scorer
     */
    BubbleScorer(workload::RunConfig cfg,
                 workload::RunService& service);

    /**
     * Bubble score of an application deployed on @p nodes: the mean,
     * over nodes, of the inverted probe degradation. The per-node
     * probe co-runs are submitted as one batch.
     */
    double score(const workload::AppSpec& app,
                 const std::vector<sim::NodeId>& nodes) const;

    /** Probe degradation sampled at integer pressures 0..max. */
    const std::vector<double>& calibration() const
    {
        return degradation_;
    }

  private:
    /** The probe co-run request behind one node's degradation. */
    workload::RunRequest
    probe_request(const workload::AppSpec& app,
                  const std::vector<sim::NodeId>& nodes,
                  sim::NodeId node) const;

    workload::RunConfig cfg_;
    workload::RunService& service_;
    double probe_solo_time_ = 0.0;
    std::vector<double> degradation_; // index = pressure 0..max
    std::vector<double> inverse_x_;   // strictly increasing degradation
    std::vector<double> inverse_y_;   // corresponding pressure
};

/** The reporter probe's AppSpec (one unit of the bubble program). */
workload::AppSpec reporter_spec();

/** A long-running bubble expressed as a batch co-runner app. */
workload::AppSpec bubble_as_app(double pressure);

} // namespace imc::core

#endif // IMC_CORE_SCORER_HPP
