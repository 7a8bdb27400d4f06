#include "workload/run_service.hpp"

#include <bit>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"

namespace imc::workload {

namespace {

// --- Canonicalization ---------------------------------------------------
//
// The key is a length-delimited field string: numbers as fixed-width
// hex (doubles by bit pattern), strings length-prefixed. Append-only
// and exhaustive over everything the leaf runs read — a new AppSpec or
// RunConfig field MUST be added here, which the equivalence tests
// enforce indirectly (a missed field would alias distinct requests).

void
put_u64(std::string& out, std::uint64_t v)
{
    static const char* digits = "0123456789abcdef";
    char buf[17];
    for (int i = 15; i >= 0; --i) {
        buf[i] = digits[v & 0xF];
        v >>= 4;
    }
    buf[16] = ';';
    out.append(buf, 17);
}

void
put_double(std::string& out, double v)
{
    put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void
put_int(std::string& out, std::int64_t v)
{
    put_u64(out, static_cast<std::uint64_t>(v));
}

void
put_string(std::string& out, const std::string& s)
{
    put_u64(out, s.size());
    out += s;
    out += ';';
}

void
put_demand(std::string& out, const sim::TenantDemand& d)
{
    put_double(out, d.gen_mb);
    put_double(out, d.need_mb);
    put_double(out, d.bw_gbps);
    put_double(out, d.mem_intensity);
    put_double(out, d.cache_gamma);
    put_double(out, d.knee_sharpness);
}

void
put_app(std::string& out, const AppSpec& app)
{
    put_string(out, app.name);
    put_string(out, app.abbrev);
    put_string(out, app.suite);
    put_int(out, static_cast<std::int64_t>(app.kind));
    put_demand(out, app.demand);
    put_double(out, app.noise_sigma);
    put_int(out, app.dom0_sensitive ? 1 : 0);
    put_double(out, app.dom0_cotenancy_penalty);
    put_int(out, app.fluctuating_cpu ? 1 : 0);
    put_int(out, app.bsp.iterations);
    put_double(out, app.bsp.work_per_iter);
    put_double(out, app.bsp.imbalance_cv);
    put_double(out, app.bsp.collective_cost);
    put_int(out, app.bsp.iters_per_collective);
    put_double(out, app.bsp.node_noise_base);
    put_double(out, app.bsp.node_noise_slope);
    put_int(out, app.bsp.neighbor_halo);
    put_u64(out, app.bsp.injections.size());
    for (const auto& inj : app.bsp.injections) {
        put_int(out, inj.rank);
        put_int(out, inj.iter);
        put_double(out, inj.delay);
    }
    put_int(out, app.pool.stages);
    put_int(out, app.pool.tasks_per_wave);
    put_double(out, app.pool.task_work_mean);
    put_double(out, app.pool.task_work_cv);
    put_double(out, app.pool.shuffle_cost);
    put_int(out, app.pool.idle_master ? 1 : 0);
    put_int(out, app.batch.segments);
    put_double(out, app.batch.total_work);
}

void
put_nodes(std::string& out, const std::vector<sim::NodeId>& nodes)
{
    put_u64(out, nodes.size());
    for (sim::NodeId n : nodes)
        put_int(out, n);
}

void
put_cfg(std::string& out, const RunConfig& cfg)
{
    put_string(out, cfg.cluster.name);
    put_int(out, cfg.cluster.num_nodes);
    put_double(out, cfg.cluster.node.llc_mb);
    put_double(out, cfg.cluster.node.bw_gbps);
    put_double(out, cfg.cluster.node.share_alpha);
    put_int(out, cfg.cluster.slots_per_node);
    put_int(out, cfg.cluster.procs_per_unit);
    put_double(out, cfg.cluster.background_sigma);
    put_u64(out, cfg.seed);
    put_int(out, cfg.reps);
    put_u64(out, cfg.salt);
}

} // namespace

RunRequest
app_time_request(const AppSpec& app,
                 const std::vector<sim::NodeId>& nodes,
                 const std::vector<ExtraTenant>& extra,
                 const RunConfig& cfg)
{
    RunRequest req;
    req.kind = RunKind::AppTime;
    req.app = app;
    req.nodes = nodes;
    req.extra = extra;
    req.cfg = cfg;
    return req;
}

RunRequest
solo_time_request(const AppSpec& app,
                  const std::vector<sim::NodeId>& nodes,
                  const RunConfig& cfg)
{
    return app_time_request(app, nodes, {}, cfg);
}

RunRequest
corun_time_request(const AppSpec& target,
                   const std::vector<sim::NodeId>& nodes,
                   const std::vector<Deployment>& corunners,
                   const RunConfig& cfg)
{
    RunRequest req;
    req.kind = RunKind::CorunTime;
    req.app = target;
    req.nodes = nodes;
    req.corunners = corunners;
    req.cfg = cfg;
    return req;
}

std::string
canonical_key(const RunRequest& req)
{
    std::string out;
    out.reserve(1024);
    put_int(out, static_cast<std::int64_t>(req.kind));
    put_app(out, req.app);
    put_nodes(out, req.nodes);
    put_u64(out, req.extra.size());
    for (const auto& t : req.extra) {
        put_int(out, t.node);
        put_demand(out, t.demand);
    }
    put_u64(out, req.corunners.size());
    for (const auto& d : req.corunners) {
        put_app(out, d.app);
        put_nodes(out, d.nodes);
    }
    put_cfg(out, req.cfg);
    return out;
}

double
execute_request(const RunRequest& req)
{
    switch (req.kind) {
      case RunKind::AppTime:
        return run_app_time(req.app, req.nodes, req.extra, req.cfg);
      case RunKind::CorunTime:
        return run_corun_time(req.app, req.nodes, req.corunners,
                              req.cfg);
    }
    throw LogicBug("execute_request: unknown RunKind");
}

// --- RunService ---------------------------------------------------------

/** Result slot shared by every handle to the same request. */
struct RunService::Handle::Entry {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    double value = 0.0;
    std::exception_ptr error;

    void finish(double v, std::exception_ptr e)
    {
        {
            const std::lock_guard<std::mutex> lock(m);
            value = v;
            error = std::move(e);
            done = true;
        }
        cv.notify_all();
    }
};

/** One queued measurement. */
struct RunService::Job {
    RunRequest req;
    std::string key; // canonical key, for fault-schedule probes
    std::shared_ptr<Handle::Entry> entry;
};

double
RunService::Handle::get() const
{
    invariant(static_cast<bool>(entry_), "RunService::Handle: empty");
    std::unique_lock<std::mutex> lock(entry_->m);
    entry_->cv.wait(lock, [&] { return entry_->done; });
    if (entry_->error)
        std::rethrow_exception(entry_->error);
    return entry_->value;
}

bool
RunService::Handle::ready() const
{
    invariant(static_cast<bool>(entry_), "RunService::Handle: empty");
    const std::lock_guard<std::mutex> lock(entry_->m);
    return entry_->done;
}

RunService::RunService(int threads)
{
    require(threads >= 0, "RunService: negative thread count");
    threads_ = resolve_threads(threads);
    if (threads_ > 1) {
        workers_.reserve(static_cast<std::size_t>(threads_));
        for (int i = 0; i < threads_; ++i)
            workers_.emplace_back([this] { worker_loop(); });
    }
}

RunService::~RunService()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
RunService::worker_loop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock,
                          [&] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to drain
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        execute_into(job.req, job.key, *job.entry);
    }
}

double
RunService::execute_with_faults(
    const RunRequest& req,
    // Only the probe macro reads the key, so IMC_FAULT_DISABLED
    // builds (which fold the probe to a constant) never touch it.
    [[maybe_unused]] const std::string& key)
{
    // Unfaulted fast path: exactly the recorded-figure code path (no
    // attempt loop, no clocks).
    if (!IMC_FAULT_ARMED()) {
        IMC_OBS_SPAN(span, "runservice.execute");
        return execute_request(req);
    }
    // The retry policy the class comment documents.
    constexpr int kAttempts = 3;
    constexpr double kTimeoutMs = 20.0;
    constexpr double kBackoffBaseMs = 1.0;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
        const fault::Outcome injected = IMC_FAULT_PROBE(
            "run.exec", key, static_cast<std::uint64_t>(attempt));
        bool timed_out = false;
        if (injected.delay_ms > 0.0) {
            if (injected.delay_ms >= kTimeoutMs) {
                // Straggler past the deadline: a timeout, retried
                // WITHOUT serving the injected delay — a "hung"
                // schedule cannot hang the service.
                timed_out = true;
            } else {
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        injected.delay_ms));
            }
        }
        if (!timed_out && !injected.fail) {
            IMC_OBS_SPAN(span, "runservice.execute");
            return execute_request(req);
        }
        const bool retrying = attempt + 1 < kAttempts;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (timed_out)
                ++stats_.timeouts;
            if (retrying)
                ++stats_.retries;
            else
                ++stats_.failed;
        }
        if (IMC_OBS_ENABLED()) {
            if (timed_out)
                IMC_OBS_COUNT("run.timeouts");
            if (retrying)
                IMC_OBS_COUNT("run.retries");
            else
                IMC_OBS_COUNT("run.failed");
        }
        if (retrying) {
            // Deterministic exponential backoff: base * 2^attempt ms.
            // Pure wall-clock pacing — it never feeds a value.
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    kBackoffBaseMs *
                    static_cast<double>(1u << attempt)));
        }
    }
    throw MeasurementFailed(
        "RunService: measurement permanently failed after " +
        std::to_string(kAttempts) + " attempts at site run.exec");
}

void
RunService::execute_into(const RunRequest& req, const std::string& key,
                         Handle::Entry& entry)
{
    double value = 0.0;
    std::exception_ptr error;
    try {
        value = execute_with_faults(req, key);
    } catch (...) {
        error = std::current_exception();
    }
    entry.finish(value, error);
}

RunService::Handle
RunService::submit(const RunRequest& req)
{
    std::string key = canonical_key(req);
    std::shared_ptr<Handle::Entry> entry;
    bool fresh = false;
    std::size_t queue_depth = 0;
    (void)queue_depth; // consumed only by the obs block below
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.submitted;
        auto it = cache_.find(key);
        if (it != cache_.end()) {
            ++stats_.cache_hits;
            entry = it->second;
        } else {
            entry = std::make_shared<Handle::Entry>();
            cache_.emplace(key, entry);
            ++stats_.executed;
            fresh = true;
            if (threads_ > 1)
                queue_.push_back(Job{req, key, entry});
        }
        queue_depth = queue_.size();
    }
    // Mirror the accounting into the obs registry (outside the
    // service lock; obs does its own, never-nested synchronization).
    if (IMC_OBS_ENABLED()) {
        IMC_OBS_COUNT("runservice.submitted");
        if (fresh)
            IMC_OBS_COUNT("runservice.executed");
        else
            IMC_OBS_COUNT("runservice.cache_hits");
        IMC_OBS_GAUGE_MAX("runservice.queue_depth.max",
                       static_cast<double>(queue_depth));
    }
    if (fresh) {
        if (threads_ > 1) {
            work_cv_.notify_one();
        } else {
            // Inline serial mode: execute at submit, on this thread.
            execute_into(req, key, *entry);
        }
    }
    return Handle(std::move(entry));
}

std::vector<double>
RunService::run_all(const std::vector<RunRequest>& reqs)
{
    if (IMC_OBS_ENABLED()) {
        IMC_OBS_COUNT("runservice.batches");
        IMC_OBS_OBSERVE("runservice.batch_size",
                     static_cast<double>(reqs.size()));
    }
    std::vector<Handle> handles;
    handles.reserve(reqs.size());
    for (const auto& req : reqs)
        handles.push_back(submit(req));
    std::vector<double> out;
    out.reserve(handles.size());
    for (const auto& handle : handles)
        out.push_back(handle.get());
    return out;
}

RunService::Stats
RunService::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace imc::workload
