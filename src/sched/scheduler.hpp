#ifndef IMC_SCHED_SCHEDULER_HPP
#define IMC_SCHED_SCHEDULER_HPP

/**
 * @file
 * The event-driven incremental scheduler core ("imcd").
 *
 * A SchedulerCore maintains a near-optimal interference-aware
 * placement under a stream of events instead of a one-shot batch
 * anneal: app arrivals are admitted against node capacity and placed
 * greedily through the DeltaScorer's exact marginal costs, departures
 * free their nodes, node crashes trigger a greedy repair of the
 * displaced units (crash() is the project's one crash-repair path),
 * and node joins revive capacity. After every placement-changing
 * event a *bounded* re-optimization polishes the dirty neighborhood:
 * a fixed number of seeded hill-climb proposals (unit swaps and moves
 * touching the dirtied nodes), never a wall-clock budget — the
 * proposal budget is what keeps replays byte-identical across
 * machines and thread counts while still bounding per-event latency
 * (see DESIGN.md §8).
 *
 * SLO handling: an app may carry a maximum acceptable normalized
 * execution time (slo <= 0 = best-effort). For ServiceApp instances
 * the measured/predicted "normalized time" is normalized p99 request
 * latency, so the SLO field is a real tail-latency target: admission,
 * eviction veto, and crash repair all score against it through the
 * shared placement::tail_objective term. The polish objective adds
 * slo_penalty per unit of weighted SLO violation, and when admission
 * or crash repair runs out of capacity the core may evict best-effort
 * apps (never SLO apps) to make room — SLO-aware eviction. A displaced
 * unit that no live node can take even then costs its own app its
 * placement: crash repair drops that app (SLO or not) rather than
 * fail the event.
 *
 * Fault sites: "sched.admit" (key "app#<id>") fail-rejects an
 * arrival; "sched.evict" (key "app#<victim id>") vetoes one eviction
 * candidate. Both are deterministic under an armed schedule.
 *
 * Candidate ranking: the core keeps its live nodes with a free slot
 * in an ordered index keyed (newcomer pressure, load, id). An event
 * marks the nodes it touched, and the next read re-keys only those,
 * so choosing nodes costs what the event touched, not the cluster
 * size (DESIGN.md §8).
 *
 * Index discipline: instances are dense [0, num_apps) indices mapped
 * to stable external int64 ids; removal renumbers by swap-with-last
 * (the Placement/Evaluator/DeltaScorer *_swap ops), so every layer's
 * index i always refers to the same app.
 */

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "placement/delta_scorer.hpp"
#include "placement/evaluator.hpp"

namespace imc::sched {

/** Scheduler knobs. */
struct SchedOptions {
    /**
     * Greedy insertion: how many pressure-ranked candidate nodes get
     * an exact marginal-cost evaluation per unit placed.
     */
    int candidate_nodes = 16;
    /**
     * Bounded re-optimization: hill-climb proposals per
     * placement-changing event (0 disables the polish). A proposal
     * budget, not a time budget — determinism requires it.
     */
    int polish_proposals = 128;
    /** Objective weight per unit of weighted SLO violation. */
    double slo_penalty = 100.0;
    /** Seed of the polish proposal stream. */
    std::uint64_t seed = 1;
    /** Allow evicting best-effort apps when capacity runs out. */
    bool allow_eviction = true;
};

/** Outcome of one arrival. */
struct Admission {
    /** The app is now placed. */
    bool admitted = false;
    /** Rejected by an armed "sched.admit" fault (counts as refusal). */
    bool fault_rejected = false;
    /** Best-effort apps evicted to make room, in eviction order. */
    std::vector<std::int64_t> evicted;
};

/** Outcome of one crash event. */
struct RepairOutcome {
    /** Units the greedy repair moved off dead nodes. */
    int moved_units = 0;
    /**
     * Apps removed by the repair, in removal order: best-effort apps
     * evicted to make room, and displaced apps dropped because no
     * live node could take one of their units (eviction off, or no
     * unvetoed best-effort app left).
     */
    std::vector<std::int64_t> evicted;
};

/** The event-driven incremental placement scheduler. */
class SchedulerCore {
  public:
    /**
     * An empty scheduler over an idle cluster.
     *
     * @param evaluator predictor; must support the delta and dynamic
     *        paths (ModelEvaluator does, with either predictor).
     *        Outlives the core. The core pushes/pops instances on it
     *        as apps come and go — do not share it with another
     *        consumer that assumes a fixed app list.
     */
    SchedulerCore(placement::Evaluator& evaluator, int num_nodes,
                  int slots_per_node, SchedOptions opts);

    // --- Events --------------------------------------------------------

    /**
     * App arrival: admission control, SLO-aware eviction if capacity
     * is short, greedy insertion, bounded polish.
     *
     * @param id    external identity; must be new
     * @param app   spec to place
     * @param units distinct nodes requested (>= 1)
     * @param slo   max acceptable normalized time; <= 0 best-effort
     */
    Admission arrive(std::int64_t id, const workload::AppSpec& app,
                     int units, double slo);

    /**
     * App departure; unknown ids are tolerated (a trace may depart an
     * app whose arrival was rejected).
     *
     * @return true when the app was present and removed
     */
    bool depart(std::int64_t id);

    /**
     * Node crash: mark dead, repair displaced units, polish. Crashing
     * an already-dead node is a no-op.
     *
     * @throws ConfigError when @p node is out of range
     */
    RepairOutcome crash(sim::NodeId node);

    /** Node (re)join. @return false when the node was already alive */
    bool join(sim::NodeId node);

    // --- State ---------------------------------------------------------

    /** The maintained placement (valid; never uses dead nodes). */
    const placement::Placement& placement() const
    {
        return scorer_.placement();
    }

    /** Per-instance predicted normalized times (index-aligned). */
    const std::vector<double>& times() const { return scorer_.times(); }

    /** VM-weighted total normalized time of the current placement. */
    double total_time() const { return scorer_.total_time(); }

    /**
     * The polished objective: total_time() plus slo_penalty times the
     * unit-weighted sum of SLO violations, accumulated in instance
     * order (deterministic).
     */
    double objective() const;

    /** Number of placed apps. */
    int num_apps() const
    {
        return scorer_.placement().num_instances();
    }

    /** External id of instance index @p index. */
    std::int64_t id_at(int index) const;

    /** Instance index of @p id, or -1. */
    int index_of(std::int64_t id) const;

    /** True while @p node accepts units. */
    bool node_alive(sim::NodeId node) const;

    /** Units currently assigned to @p node: its tenant count. */
    int load_of(sim::NodeId node) const;

    /** Events processed so far (the polish stream index). */
    std::uint64_t events_seen() const { return event_seq_; }

  private:
    /**
     * Empty the just-crashed @p dead node one unit at a time: the
     * first instance of its tenant list (ascending, so the lowest
     * index) moves its unit there to the least-loaded live node with a
     * free slot that the instance does not occupy (ties to the lowest
     * node id). When no such node exists, evict a best-effort app (if
     * allowed and one is left unvetoed), else drop the displaced app
     * itself; both land in @p out.evicted. Every earlier crash was
     * repaired in full, so no other dead node holds a unit.
     *
     * @return the destination node of every moved unit (the dirty
     *         set the polish wants)
     */
    std::vector<sim::NodeId> repair_displaced(sim::NodeId dead,
                                              RepairOutcome& out);

    /** Remove instance @p index (swap-with-last bookkeeping). */
    void remove_index(int index);

    /**
     * Pick the next eviction victim: best-effort apps only, worst
     * predicted time first, ties to the lowest id. Each pick is
     * probed at "sched.evict"; a vetoed app joins @p vetoed and is
     * skipped from then on. -1 when none remain.
     */
    int pick_victim(std::vector<std::int64_t>& vetoed) const;

    /**
     * Evict victims (picked by pick_victim) until at least
     * @p units live nodes have a free slot. Returns evicted ids in
     * order; stops early when out of victims, so the caller must
     * re-check feasibility. Evictions taken before a failed admission
     * stand — the manager kills best-effort work optimistically, like
     * its production counterparts.
     */
    std::vector<std::int64_t> evict_until_room(int units);

    /** Live nodes with at least one free slot: the room index's size. */
    int nodes_with_room();

    /**
     * Greedy insertion node choice for one arriving app. Each unit
     * scores the first candidate_nodes keys of the room index that
     * no earlier unit took.
     */
    std::vector<sim::NodeId> choose_nodes(int new_index, int units);

    /**
     * Have @p node re-keyed before the room index is next read. An
     * edit of a node's tenants, load or liveness must mark the node
     * before that read.
     */
    void mark_dirty(sim::NodeId node);

    /**
     * Re-key every node marked since the last read: insert it when it
     * gained room, drop it when it lost room, move it when its key
     * changed. Each re-key reuses a tree node; no key, no work.
     */
    void refresh_room();

    /**
     * Bounded hill-climb over the dirty neighborhood. Each proposal is
     * kept iff it lowers objective(), decided by
     * placement::filter_change from the instances it re-scored.
     *
     * @param dirty nodes the event changed; the event has marked each
     *        of them for the room index already
     */
    void polish(const std::vector<sim::NodeId>& dirty);

    placement::Evaluator& eval_;
    placement::DeltaScorer scorer_;
    SchedOptions opts_;
    Rng base_rng_;
    std::uint64_t event_seq_ = 0;

    std::vector<std::int64_t> ids_;  // index -> external id
    std::vector<double> slo_;        // index -> SLO
    std::vector<int> units_;         // index -> unit count
    std::map<std::int64_t, int> index_of_;
    std::vector<char> alive_;        // node -> accepts units

    /**
     * choose_nodes' ranking of a node with room: lowest newcomer
     * pressure, then lowest load, then lowest id. Ids are unique, so
     * the order is strict and total. node < 0 marks a node that is
     * not in the index.
     */
    struct RoomKey {
        double pressure = 0.0;
        int load = 0;
        sim::NodeId node = -1;
        bool operator<(const RoomKey& o) const
        {
            if (pressure != o.pressure)
                return pressure < o.pressure;
            if (load != o.load)
                return load < o.load;
            return node < o.node;
        }
        bool operator==(const RoomKey&) const = default;
    };
    using RoomIndex = std::set<RoomKey>;

    RoomIndex room_;                          // live nodes with room
    std::vector<RoomKey> room_key_;           // node -> key in room_
    /** Tree nodes of nodes out of room_, kept for their next insert. */
    std::vector<RoomIndex::node_type> spare_;
    std::vector<sim::NodeId> dirty_nodes_;    // marked since last read
    std::vector<char> dirty_;                 // node -> in dirty_nodes_
};

} // namespace imc::sched

#endif // IMC_SCHED_SCHEDULER_HPP
