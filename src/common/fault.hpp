#ifndef IMC_COMMON_FAULT_HPP
#define IMC_COMMON_FAULT_HPP

/**
 * @file
 * imc::fault — a seeded, fully deterministic fault-injection engine.
 *
 * A production consolidation manager must survive failed or straggling
 * measurements, corrupt on-disk model caches, and node loss. This
 * layer lets tests and benches inject exactly those faults on a
 * *reproducible schedule*: every injection decision is a pure function
 * of (schedule seed, injection-site id, content key, attempt index),
 * never of wall-clock time, thread identity, or call order. Two runs
 * with the same --fault-seed/--fault-spec therefore inject the same
 * faults at the same logical points regardless of --threads, and the
 * hardened layers above (RunService retry, registry quarantine,
 * profiler degradation) produce identical observable output.
 *
 * Injection sites are dotted lowercase ids, "<subsystem>.<what>"
 * (mirroring the imc::obs naming convention). The kFaultSites array
 * below is the registry: imc-lint's cross-TU fault-site pass checks
 * every IMC_FAULT_PROBE in the tree against it (unknown sites are
 * rejected, registered-but-never-probed sites are reported dead), so
 * adding a probe means extending the array in the same change.
 *
 * A *schedule* is armed from a seed plus a spec string of
 * comma-separated clauses
 *
 *   <site>:<kind>:<probability>[:<param>]
 *
 * where <kind> is one of
 *
 *   fail     the operation raises MeasurementFailed (param unused)
 *   slow     a straggler: inject <param> ms of latency (default 50)
 *   corrupt  the artifact reads back corrupted (param unused)
 *   crash    the node is lost (param unused)
 *
 * e.g. "run.exec:fail:0.2,run.exec:slow:0.1:40". A clause site of "*"
 * matches every site. The engine is *disarmed by default* and every
 * probe entry point starts with one relaxed atomic load; defining
 * IMC_FAULT_DISABLED compiles every probe to a constant, exactly like
 * IMC_OBS_DISABLED. Library code reaches this engine only through the
 * gated IMC_FAULT_* macros at the bottom of this header (enforced by
 * imc-lint's fault-gate rule).
 */

#include <cstdint>
#include <string>

namespace imc {
class Cli;
}

namespace imc::fault {

/**
 * Registered injection sites — the single source of truth the
 * imc-lint fault-site / fault-site-dead passes cross-check probe
 * literals against. One entry per site, with the subsystem that owns
 * the probe:
 *
 *   run.exec            RunService request execution
 *   registry.cache.load model-cache file load (transient corruption)
 *   sim.crash           node-crash schedule (delay-wave chaos runs)
 *   sched.admit         scheduler admission control (arrival rejected)
 *   sched.evict         scheduler eviction (victim candidate vetoed)
 */
inline constexpr const char* kFaultSites[] = {
    "run.exec",
    "registry.cache.load",
    "sim.crash",
    "sched.admit",
    "sched.evict",
};

/** What a probe decided to inject at one logical point. */
struct Outcome {
    /** Raise a MeasurementFailed-style transient failure. */
    bool fail = false;
    /** Straggler latency to inject, in milliseconds (0 = none). */
    double delay_ms = 0.0;
    /** The artifact behind this point reads back corrupted. */
    bool corrupt = false;
    /** The node behind this point is lost. */
    bool crash = false;

    /** True when nothing was injected. */
    bool clean() const
    {
        return !fail && delay_ms == 0.0 && !corrupt && !crash;
    }
};

#ifndef IMC_FAULT_DISABLED

/**
 * Arm a fault schedule. @p spec may be empty (an armed-but-empty
 * schedule: every probe is clean, which the acceptance tests use to
 * show the harness itself never perturbs results). Throws ConfigError
 * on a malformed spec.
 */
void arm(std::uint64_t seed, const std::string& spec);

/** Disarm: every probe returns a clean Outcome again. */
void disarm();

/** True while a schedule is armed (one relaxed atomic load). */
bool armed();

/**
 * Decide what to inject at one logical point. Pure in
 * (armed schedule, site, key, attempt): no clocks, no global
 * counters, so the decision is identical across thread counts and
 * repeat runs.
 *
 * @param site    stable injection-site id ("run.exec", ...)
 * @param key     content key of the operation (e.g. the canonical
 *                request key); same operation => same key
 * @param attempt retry ordinal, so a retried operation re-rolls
 *                instead of failing forever
 */
Outcome probe(const std::string& site, const std::string& key,
              std::uint64_t attempt = 0);

/** Total faults injected since arm() (all sites; test introspection). */
std::uint64_t injected_count();

/**
 * RAII wiring of the standard CLI surface: arms a schedule when
 * --fault-seed N and/or --fault-spec SPEC is present (seed defaults
 * to 0, spec to empty) and disarms at scope exit. With neither flag
 * the object is inert.
 */
class Session {
  public:
    explicit Session(const Cli& cli);
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

  private:
    bool armed_ = false;
};

#else // IMC_FAULT_DISABLED: compile every probe to a constant.

inline void arm(std::uint64_t, const std::string&) {}
inline void disarm() {}
inline bool armed() { return false; }
inline Outcome probe(const std::string&, const std::string&,
                     std::uint64_t = 0)
{
    return {};
}
inline std::uint64_t injected_count() { return 0; }

class Session {
  public:
    explicit Session(const Cli&) {}
};

#endif // IMC_FAULT_DISABLED

} // namespace imc::fault

/**
 * Gated probe macros — the ONLY way library code may consult the
 * fault engine (imc-lint's fault-gate rule enforces this outside
 * src/common/fault.*). Each forwards to imc::fault in normal builds;
 * under IMC_FAULT_DISABLED the whole expression folds to a constant
 * and the arguments (string concatenations) are never evaluated.
 *
 * Control-plane entry points (arm/disarm, fault::Session,
 * injected_count) are not probes and may be used directly by tests
 * and tool mains.
 */
#ifndef IMC_FAULT_DISABLED
#define IMC_FAULT_ARMED() ::imc::fault::armed()
#define IMC_FAULT_PROBE(site, key, attempt)                             \
    (::imc::fault::armed()                                              \
         ? ::imc::fault::probe(site, key, attempt)                      \
         : ::imc::fault::Outcome{})
#else
#define IMC_FAULT_ARMED() (false)
#define IMC_FAULT_PROBE(site, key, attempt) (::imc::fault::Outcome{})
#endif // IMC_FAULT_DISABLED

#endif // IMC_COMMON_FAULT_HPP
