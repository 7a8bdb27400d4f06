#ifndef IMC_WORKLOAD_BSP_APP_HPP
#define IMC_WORKLOAD_BSP_APP_HPP

/**
 * @file
 * Bulk-synchronous application driver (SPEC MPI2007 / NPB analogue).
 *
 * Every process runs the same number of iterations; after each group
 * of iterations all processes meet at a collective. A process on an
 * interfered node computes slower, and because the collective is a
 * full barrier, its delay stalls every other process — the paper's
 * "high propagation" class (Section 3.2). Work imbalance across
 * processes plus run-to-run noise determine how much *additional*
 * interfering nodes still hurt once one node is already slow.
 *
 * Two opt-in extensions serve the delay-wave validation study
 * (DESIGN.md §11): spec.bsp.neighbor_halo >= 1 swaps the global
 * barrier for nearest-neighbor coupling (sim::NeighborSync), and
 * spec.bsp.injections stretches chosen compute segments by a one-off
 * delay. Both default off and leave the recorded figures' code path
 * untouched.
 */

#include <vector>

#include "sim/coordination.hpp"
#include "workload/app.hpp"

namespace imc::workload {

/**
 * ConfigError unless every injection targets a rank in [0, @p ranks)
 * and an iteration in [0, @p iterations) with a positive, finite
 * delay. BspApp checks its spec with it at launch, and
 * delaywave::validate checks a scenario with it before any capture.
 */
void check_injections(const std::vector<BspInjection>& injections,
                      int ranks, int iterations);

/** A live bulk-synchronous application instance. */
class BspApp : public RunningApp {
  public:
    /** Deploys tenants and starts all processes at time now(). */
    BspApp(sim::Simulation& sim, AppSpec spec, LaunchOptions opts);

  private:
    struct ProcState {
        sim::ProcId proc = -1;
        int iter = 0;             // completed iterations
        int since_collective = 0; // iterations since the last barrier
        Rng rng{0};
    };

    /** One node's node-noise standard normal for one iteration. */
    struct NodeDraw {
        int iter = -1;
        double z = 0.0;
    };

    /** Issue the next compute segment (or finish) for a process. */
    void step(std::size_t idx);

    /** Compute-segment completion: injected delay, then bookkeeping. */
    void segment_done(std::size_t idx);

    /** Post-delay completion: stamp, then sync or next iteration. */
    void finish_segment(std::size_t idx);

    /** Sync release: stamp it, then start the next iteration. */
    void resume(std::size_t idx);

    /**
     * The standard normal behind node @p node_idx's noise factor at
     * iteration @p iter: a pure function of the node and the
     * iteration, drawn when a process reaches an iteration other than
     * the node's last one and reused by the processes that follow.
     */
    double node_normal(std::size_t node_idx, int iter);

    void halt_procs() override;

    sim::Barrier barrier_;
    sim::NeighborSync neighbor_;
    std::vector<ProcState> procs_;
    /** Seed of the node-correlated per-iteration noise stream. */
    std::uint64_t node_seed_ = 0;
    /** Per node, the draw of the iteration last asked for. Under a
     *  global barrier every iteration (the catalog's BSP apps) a
     *  node's processes ask for one iteration at a time; any other
     *  schedule only costs redraws of the same values. */
    std::vector<NodeDraw> node_draws_;
};

} // namespace imc::workload

#endif // IMC_WORKLOAD_BSP_APP_HPP
