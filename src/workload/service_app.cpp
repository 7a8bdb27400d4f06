#include "workload/service_app.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace imc::workload {

ZipfSampler::ZipfSampler(int n, double theta)
{
    require(n >= 1, "ZipfSampler: need at least one key");
    require(theta >= 0.0, "ZipfSampler: theta must be >= 0");
    cdf_.reserve(static_cast<std::size_t>(n));
    double total = 0.0;
    for (int k = 0; k < n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), theta);
        cdf_.push_back(total);
    }
    for (double& c : cdf_)
        c /= total;
    cdf_.back() = 1.0; // defeat rounding: the CDF must reach 1
}

int
ZipfSampler::sample(double u) const
{
    invariant(u >= 0.0 && u < 1.0, "ZipfSampler: u must be in [0, 1)");
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const auto idx = it == cdf_.end() ? cdf_.size() - 1
                                      : static_cast<std::size_t>(
                                            it - cdf_.begin());
    return static_cast<int>(idx);
}

ServiceApp::ServiceApp(sim::Simulation& sim, AppSpec spec,
                       LaunchOptions opts)
    : RunningApp(sim, std::move(spec), std::move(opts)),
      arrivals_rng_(opts_.rng.fork("arrivals")),
      zipf_(spec_.serve.num_keys, spec_.serve.zipf_theta)
{
    const ServiceParams& sp = spec_.serve;
    require(sp.duration > 0.0, "ServiceApp: duration must be > 0");
    require(sp.request_rate > 0.0,
            "ServiceApp: request_rate must be > 0");
    require(sp.service_time > 0.0,
            "ServiceApp: service_time must be > 0");
    require(sp.service_cv >= 0.0, "ServiceApp: service_cv must be >= 0");
    require(sp.bucket_rate > 0.0, "ServiceApp: bucket_rate must be > 0");
    require(sp.bucket_burst >= 1.0,
            "ServiceApp: bucket_burst must be >= 1");

    register_tenants();
    epoch_ = sim_.now();
    request_sigma_ = std::sqrt(sp.service_cv * sp.service_cv +
                               noise_sigma() * noise_sigma());

    vms_.resize(static_cast<std::size_t>(total_procs_));
    std::size_t vm = 0;
    for (std::size_t n = 0; n < tenants_.size(); ++n) {
        for (int v = 0; v < opts_.procs_per_node; ++v, ++vm) {
            vms_[vm].proc = sim_.add_proc(tenants_[n]);
            vms_[vm].node_idx = n;
            vms_[vm].tokens = sp.bucket_burst;
            vms_[vm].last_refill = sim_.now();
        }
    }
    schedule_arrival();
}

void
ServiceApp::schedule_arrival()
{
    const ServiceParams& sp = spec_.serve;
    // All three draws happen here, in fixed order, so the request
    // stream is decided before any queueing/contention plays out.
    const double gap = -std::log(1.0 - arrivals_rng_.uniform()) /
                       sp.request_rate;
    next_arrival_ += gap;
    if (next_arrival_ > sp.duration) {
        arrivals_done_ = true;
        maybe_finish();
        return;
    }
    const int key = zipf_.sample(arrivals_rng_.uniform());
    pending_.work =
        sp.service_time * arrivals_rng_.lognormal_factor(request_sigma_);
    pending_vm_ = static_cast<std::size_t>(key) % vms_.size();
    const double dt = epoch_ + next_arrival_ - sim_.now();
    pending_.arrival = epoch_ + next_arrival_;
    sim_.schedule(dt, [this] { arrive(); });
}

void
ServiceApp::arrive()
{
    if (detached())
        return;
    admit(pending_vm_, pending_);
    schedule_arrival();
}

void
ServiceApp::admit(std::size_t vm, const Request& req)
{
    ++arrived_;
    const ServiceParams& sp = spec_.serve;
    VmState& v = vms_[vm];
    const double now = sim_.now();
    v.tokens = std::min(sp.bucket_burst,
                        v.tokens + (now - v.last_refill) *
                                       sp.bucket_rate);
    v.last_refill = now;
    if (v.tokens < 1.0) {
        ++dropped_; // open loop: shed, never queue, over-rate load
        return;
    }
    v.tokens -= 1.0;
    v.queue.push_back(req);
    kick(vm);
}

void
ServiceApp::kick(std::size_t vm)
{
    VmState& v = vms_[vm];
    if (v.busy || v.queue.empty())
        return;
    const Request req = v.queue.front();
    v.queue.pop_front();
    v.busy = true;
    v.busy_arrival = req.arrival;
    ++in_flight_;
    // The engine serves this at rate 1/slowdown, so the node's
    // *current* contention directly stretches the request.
    const double work = req.work * dom0_factor(v.node_idx);
    sim_.compute(v.proc, work, [this, vm] { request_done(vm); });
}

void
ServiceApp::request_done(std::size_t vm)
{
    if (detached())
        return;
    VmState& v = vms_[vm];
    const double arrival = v.busy_arrival;
    const double latency = sim_.now() - arrival;
    latencies_.add(latency);
    ++served_;
    digest_ = hash_combine(digest_, std::bit_cast<std::uint64_t>(arrival));
    digest_ = hash_combine(digest_, std::bit_cast<std::uint64_t>(latency));
    v.busy = false;
    --in_flight_;
    kick(vm);
    maybe_finish();
}

void
ServiceApp::maybe_finish()
{
    if (finishing_ || !arrivals_done_ || in_flight_ > 0)
        return;
    for (const VmState& v : vms_) {
        if (!v.queue.empty())
            return;
    }
    finishing_ = true;
    // Finish from a fresh event, never from inside the constructor's
    // first schedule_arrival(): on_complete may assume launch()
    // already returned (RestartingApp does).
    sim_.schedule(0.0, [this] {
        if (detached())
            return;
        const int procs = total_procs_;
        for (int i = 0; i < procs; ++i)
            proc_finished();
    });
}

double
ServiceApp::qos_metric() const
{
    invariant(done(), "qos_metric: app not done yet");
    return latencies_.count() ? latencies_.quantile(99.0) : 0.0;
}

void
ServiceApp::halt_procs()
{
    for (const VmState& v : vms_)
        sim_.abort_proc(v.proc);
}

} // namespace imc::workload
