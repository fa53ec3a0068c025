/**
 * @file
 * Scenario legs of the repository benchmark (see README.md).
 *
 *     perfbench_scenarios --workload NAME --seed N --seconds S --trace 0|1
 *
 * Each workload is one ScenarioConfig run as a `buddy` leg and a
 * `ptemagnet` leg at the paper-default platform (slice_ops=2,
 * walk_batch=8), single-threaded.
 *
 * --trace 0 repeats the pair of legs through run_scenario until S seconds
 * have passed (at least three repetitions). Each repetition first times
 * the set-up of both legs on its own, between slices of the host-speed
 * Probe, then runs the legs with probe slices interleaved (ProbeSampler).
 * The process-wide StreamCache is cleared before each repetition, so
 * every repetition does the work of a fresh process.
 *
 * --trace 1 alternates, for S seconds, an untraced repetition (per-layer
 * counts from its stat snapshots) with the same legs driven through
 * System's public calls, with a span around each phase and each measured
 * chunk.
 *
 * Output: one JSON line of raw measurements on stdout; run.py turns it
 * into metrics. Host times are thread-CPU seconds.
 */
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <sys/resource.h>
#include <sys/time.h>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/experiment.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "workload/trace.hpp"
#include "workload/workload_factory.hpp"

namespace {

using namespace ptm;
using namespace ptm::sim;

double
thread_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
wall_s()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- host-speed probe -------------------------------------------------------
//
// The host is shared, and the speed of the core a thread runs on drifts by
// tens of percent with the load of other tenants: on the 4-vCPU VM the
// benchmark was sized on, the same fixed loop timed back to back kept
// 0.9 correlation over 15 ms, 0.5 over 300 ms and 0.2 over 700 ms, and two
// threads on different vCPUs drifted nearly independently. Thread-CPU
// time drifts with it. So the probe below runs on the leg's own thread,
// interleaved with it: a CPU-time interval timer interrupts the leg every
// few milliseconds and runs one short probe slice in the signal handler.
// run.py takes the slices' time out of the leg's and rescales the rest by
// the slices' speed, so a slow core slows both and the rescaled time
// stays. The set-up timings, which take a millisecond, are bracketed by
// probe slices instead.

/// A frozen miniature of the simulator's hot loop, calling no simulator
/// code: a graph-walk address stream (random reads of an index array, as
/// pagerank makes) through a three-level set-associative LRU tag model.
/// Branchy, with the same mix of cache-resident tag work and larger-than-L2
/// data as a simulated op.
class Probe {
  public:
    static constexpr std::size_t kGraphWords = std::size_t{2} << 20;  // 8 MiB
    static constexpr std::size_t kL3Sets = 8192;
    /// Ops of one slice: on a quiet 4-vCPU Xeon about 1 ms back to back,
    /// 1.6 ms inside a leg, which has evicted the tables.
    static constexpr int kSliceOps = 20'000;

    Probe() : graph_(kGraphWords), l1_(64, 8), l2_(1024, 8), l3_(kL3Sets, 16)
    {
        std::uint64_t x = 0x243f6a8885a308d3ULL;
        for (std::uint32_t &v : graph_) {
            x = splitmix(x);
            v = static_cast<std::uint32_t>(x);
        }
    }

    /// Thread-CPU seconds of one slice. Async-signal-safe: it allocates
    /// nothing and calls only clock_gettime.
    double
    slice_s()
    {
        const double t0 = thread_cpu_s();
        std::uint64_t node = state_;
        std::uint64_t x = state_;
        for (int i = 0; i < kSliceOps; ++i) {
            // Mostly follow the graph (locality), sometimes jump.
            x = splitmix(x);
            node = (x & 7) == 0
                       ? x
                       : node + 1 + (graph_[node % kGraphWords] & 15);
            const std::uint64_t line = (node * 4) >> 6;
            if (!l1_.access(line) && !l2_.access(line))
                l3_hits_ += l3_.access(line);
        }
        state_ = node;
        return thread_cpu_s() - t0;
    }

    /// Resident size of the probe's tables, which peak RSS includes.
    static double
    resident_mb()
    {
        const std::size_t tags =
            (64 * 8 + 1024 * 8 + kL3Sets * 16) *
            (sizeof(std::uint64_t) + sizeof(std::uint32_t));
        return static_cast<double>(kGraphWords * sizeof(std::uint32_t) +
                                   tags) /
               (1024.0 * 1024.0);
    }

    /// Printed, so the loop cannot be optimised away.
    std::uint64_t l3_hits() const { return l3_hits_; }

  private:
    /// Set-associative tags with LRU by last-use stamp.
    class Tags {
      public:
        Tags(std::size_t sets, std::size_t ways)
            : sets_(sets), ways_(ways), tag_(sets * ways, ~0ULL),
              stamp_(sets * ways, 0)
        {
        }
        bool
        access(std::uint64_t line)
        {
            const std::size_t base = (line % sets_) * ways_;
            std::size_t victim = base;
            ++clock_;
            for (std::size_t w = base; w < base + ways_; ++w) {
                if (tag_[w] == line) {
                    stamp_[w] = clock_;
                    return true;
                }
                if (stamp_[w] < stamp_[victim])
                    victim = w;
            }
            tag_[victim] = line;
            stamp_[victim] = clock_;
            return false;
        }

      private:
        std::size_t sets_, ways_;
        std::vector<std::uint64_t> tag_;
        std::vector<std::uint32_t> stamp_;
        std::uint32_t clock_ = 0;
    };

    static std::uint64_t
    splitmix(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    std::vector<std::uint32_t> graph_;
    Tags l1_, l2_, l3_;
    std::uint64_t state_ = 1;
    std::uint64_t l3_hits_ = 0;
};

/// Runs probe slices inside a leg: while started, ITIMER_VIRTUAL fires
/// every kIntervalUs of user CPU time and the SIGVTALRM handler times one
/// slice. The process is single-threaded, so the signal lands on the
/// leg's thread.
class ProbeSampler {
  public:
    static constexpr long kIntervalUs = 8000;

    explicit ProbeSampler(Probe &probe)
    {
        probe_ = &probe;
        struct sigaction sa {};
        sa.sa_handler = on_signal;
        sa.sa_flags = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGVTALRM, &sa, nullptr);
    }

    void
    start()
    {
        slices_ = 0;
        slice_s_ = 0.0;
        set_timer(kIntervalUs);
    }

    /// Stops the timer; returns {slices run, their thread-CPU seconds}.
    std::pair<std::uint64_t, double>
    stop()
    {
        set_timer(0);
        return {slices_, slice_s_};
    }

  private:
    static void
    set_timer(long us)
    {
        itimerval t{};
        t.it_value.tv_usec = us;
        t.it_interval.tv_usec = us;
        setitimer(ITIMER_VIRTUAL, &t, nullptr);
    }

    static void
    on_signal(int)
    {
        slice_s_ = slice_s_ + probe_->slice_s();
        slices_ = slices_ + 1;
    }

    static inline Probe *probe_ = nullptr;
    static inline volatile std::uint64_t slices_ = 0;
    static inline volatile double slice_s_ = 0.0;
};

// ---- workloads ------------------------------------------------------------
//
// Lengths are chosen so one repetition (both legs) takes 1-3 s of host
// CPU on a 4-vCPU x86 VM: long enough that set-up is a small share, short
// enough that a run of the benchmark holds ten or more repetitions.

/// Table 1 protocol: co-runners fault only while the victim allocates,
/// so the measured phase is all TLB, page-walk-cache, cache and radix
/// walk work on a fragmented (buddy) or packed (ptemagnet) host PT.
constexpr std::uint64_t kWalkIsolatedOps = 4'000'000;
/// stress-ng against three stress-ng co-runners: about one guest fault,
/// buddy call and freed page per op.
constexpr std::uint64_t kFaultChurnOps = 300'000;
/// Serverless fork storm on hashed tables under overcommit.
constexpr std::uint64_t kForkStormOps = 150'000;

const std::vector<std::string> kWorkloads = {"walk_isolated", "fault_churn",
                                             "fork_storm"};

ScenarioConfig
workload_config(const std::string &name, std::uint64_t seed)
{
    if (name == "walk_isolated") {
        return ScenarioConfig{}
            .with_victim("pagerank")
            .with_scale(0.5)
            .with_corunner_preset("stressng12")
            .with_stop_corunners_after_init()
            .with_measure_ops(kWalkIsolatedOps)
            .with_seed(seed);
    }
    if (name == "fault_churn") {
        return ScenarioConfig{}
            .with_victim("stress-ng")
            .with_corunner("stress-ng", 3)
            .with_scale(1.0)
            .with_measure_ops(kFaultChurnOps)
            .with_seed(seed);
    }
    // fork_storm: the churn schedule is part of the workload definition
    // (fixed seed, as in bench/serving_forkstorm); --seed drives the
    // generators.
    ScenarioConfig config = ScenarioConfig{}
                                .with_workload("fork_storm")
                                .with_workload_param("request_ops", 96)
                                .with_scale(0.25)
                                .with_table("hashed")
                                .with_measure_ops(kForkStormOps)
                                .with_warmup_ops(0)
                                .with_seed(seed);
    // 16K host frames (the bench/serving_forkstorm storm host) drop below
    // the watermarks, so balloon sweeps, an emergency sweep and one
    // OOM-kill of a churn VM happen; at 64K frames reclaim never runs.
    config.platform.guest_frames = 32 * 1024;
    config.platform.host_frames = 16 * 1024;
    config.with_overcommit(OvercommitPolicy{}
                               .with_watermarks(192, 384)
                               .with_balloon_step(96)
                               .with_backoff(4, 64));
    config.with_churn(ChurnPlan::storm(/*seed=*/71, /*begin_step=*/500,
                                       /*end_step=*/kForkStormOps,
                                       /*boots=*/32, /*kills=*/10,
                                       /*forks=*/16)
                          .with_workload("fork_storm")
                          .with_scale(0.1)
                          .with_guest_frames(8192));
    config.with_dirty_ring(
        DirtyRingConfig{}.with_ring_entries(512).with_epoch_ops(8192));
    return config;
}

ScenarioConfig
leg_config(ScenarioConfig config, const std::string &policy)
{
    config.policy_name = policy;
    return config;
}

const char *const kPolicies[] = {"buddy", "ptemagnet"};

/// Set-up timings (both legs) per untraced repetition.
constexpr int kSetupSamples = 9;

// ---- digest ---------------------------------------------------------------

/// FNV-1a over every snapshot entry and metric, bit-exact on doubles.
class Digest {
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 1099511628211ULL;
        }
    }
    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void num(double v) { bytes(&v, sizeof v); }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 1469598103934665603ULL;
};

std::string
digest_of(const obs::StatSnapshot &stats, const MetricSet &metrics)
{
    Digest d;
    for (const obs::StatSnapshot::Entry &e : stats.entries()) {
        d.str(e.path);
        if (!e.is_histogram) {
            d.num(e.value);
            continue;
        }
        const obs::HistogramSummary &h = e.histogram;
        for (std::uint64_t v : {h.count, h.sum, h.min, h.max, h.p50, h.p90,
                                h.p99})
            d.u64(v);
        d.num(h.mean);
    }
    for (const auto &[name, value] : metrics.values()) {
        d.str(name);
        d.num(value);
    }
    return d.hex();
}

// ---- one leg ----------------------------------------------------------------

struct Leg {
    std::string policy;
    bool ok = false;
    std::string error;
    /// Thread-CPU seconds, probe slices included.
    double cpu_s = 0.0;
    /// Probe slices run inside the leg, and their thread-CPU seconds.
    std::uint64_t probe_slices = 0;
    double probe_s = 0.0;
    std::uint64_t total_ops = 0;
    std::uint64_t victim_ops = 0;
    std::uint64_t victim_cycles = 0;
    double walk_cycles = 0.0;
    std::string digest;
    obs::StatSnapshot stats;
    MetricSet metrics;

    Json
    to_json() const
    {
        JsonObject o;
        o.emplace_back("policy", policy);
        o.emplace_back("ok", ok);
        o.emplace_back("error", error);
        o.emplace_back("cpu_s", cpu_s);
        o.emplace_back("probe_slices", probe_slices);
        o.emplace_back("probe_s", probe_s);
        o.emplace_back("total_ops", total_ops);
        o.emplace_back("victim_ops", victim_ops);
        o.emplace_back("victim_cycles", victim_cycles);
        o.emplace_back("walk_cycles", walk_cycles);
        o.emplace_back("digest", digest);
        return Json(std::move(o));
    }
};

/// Output checks shared by both kinds of leg: the leg ran every configured
/// victim op.
void
check_leg(Leg &leg, const ScenarioConfig &config)
{
    leg.ok = leg.victim_ops == config.measure_ops;
    if (!leg.ok) {
        leg.error = "ran " + std::to_string(leg.victim_ops) + " of " +
                    std::to_string(config.measure_ops) + " victim ops";
    }
    leg.digest = digest_of(leg.stats, leg.metrics);
}

/// One leg through run_scenario; with @p sampler, probe slices run inside
/// it (and inside its cpu_s).
Leg
run_untraced(const ScenarioConfig &config, ProbeSampler *sampler = nullptr)
{
    Leg leg;
    leg.policy = config.resolved_policy();
    std::optional<ScenarioResult> r;
    if (sampler != nullptr)
        sampler->start();
    const double t0 = thread_cpu_s();
    try {
        r = run_scenario(config);
    } catch (const SimError &e) {
        leg.error = e.what();
    }
    if (sampler != nullptr)
        std::tie(leg.probe_slices, leg.probe_s) = sampler->stop();
    leg.cpu_s = thread_cpu_s() - t0;
    if (r) {
        leg.total_ops = r->total_ops;
        leg.victim_ops = r->victim_ops;
        leg.victim_cycles = r->victim_cycles;
        leg.walk_cycles = r->metrics.get("page_walk_cycles");
        leg.stats = std::move(r->stats);
        leg.metrics = std::move(r->metrics);
        check_leg(leg, config);
    }
    return leg;
}

// ---- traced reproduction of run_scenario ------------------------------------

/// The System run_scenario builds before its first simulated op, built
/// through the same public calls in the same order.
struct Built {
    std::unique_ptr<System> system;
    Job *victim = nullptr;
};

Built
build(const ScenarioConfig &config)
{
    // Only the features the benchmark workloads use are reproduced.
    if (config.vms != 1 || config.fault_plan.armed() ||
        !config.trace_record.empty() || !config.trace_replay.empty() ||
        config.cold_measurement || config.measure_init) {
        ptm_throw("traced legs: unsupported scenario feature");
    }
    unsigned cores = 1;
    for (const CorunnerSpec &spec : config.corunners)
        cores += spec.workers;
    cores += static_cast<unsigned>(config.churn.count(ChurnAction::Boot) +
                                   config.churn.count(ChurnAction::Fork));

    PlatformConfig platform = config.platform;
    platform.seed ^= config.seed * 0x9e3779b97f4a7c15ULL;

    Built b;
    b.system = std::make_unique<System>(platform, cores);
    System &system = *b.system;
    const std::string policy = config.resolved_policy();
    if (policy != "buddy")
        system.set_policy(policy, config.resolved_policy_params());
    system.set_overcommit(config.overcommit);
    system.set_churn_plan(config.churn);
    if (config.dirty_ring.armed())
        system.arm_dirty_ring(config.dirty_ring);

    auto make = [](const std::string &name,
                   const workload::WorkloadOptions &options)
        -> std::unique_ptr<workload::Workload> {
        if (workload::StreamCache::enabled())
            return workload::StreamCache::instance().replay(name, options);
        return workload::make_workload(name, options);
    };
    workload::WorkloadOptions options;
    options.scale = config.scale;
    options.seed = config.seed;
    workload::WorkloadOptions victim_options = options;
    victim_options.params = config.workload_params;
    b.victim = &system.add_job(make(config.victim, victim_options));
    unsigned worker_index = 0;
    for (const CorunnerSpec &spec : config.corunners) {
        for (unsigned w = 0; w < spec.workers; ++w) {
            workload::WorkloadOptions co_options = options;
            co_options.seed = config.seed + 1000 + (++worker_index);
            system.add_job(make(spec.name, co_options));
        }
    }
    return b;
}

/// Counter deltas end − begin (paths registered in between count from 0):
/// the registry's view of one measured phase.
obs::StatSnapshot
delta(const obs::StatSnapshot &begin, const obs::StatSnapshot &end)
{
    std::unordered_map<std::string, double> before;
    for (const obs::StatSnapshot::Entry &e : begin.entries())
        before.emplace(e.path, e.value);
    obs::StatSnapshot d;
    for (const obs::StatSnapshot::Entry &e : end.entries()) {
        if (!e.is_histogram)
            d.add_counter(e.path, e.value - before[e.path]);
    }
    return d;
}

struct Spans {
    double setup = 0, warmup = 0, init = 0, measure = 0, collect = 0;
    std::vector<double> chunk_ms;
    /// Registry deltas of the measured phases, one per leg.
    std::vector<obs::StatSnapshot> measured;
    /// Measured-phase ops of all jobs, per generator name.
    std::vector<std::pair<std::string, double>> ops_by_generator;
};

/// One leg through System's public calls, in run_scenario's order, with a
/// span around each phase. Its digest must equal the untraced leg's.
Leg
run_traced(const ScenarioConfig &config, Spans &spans)
{
    Leg leg;
    leg.policy = config.resolved_policy();
    const double t_start = thread_cpu_s();
    // Phase spans of this leg; time between laps that no span takes (the
    // benchmark's own bookkeeping snapshots) is left out of cpu_s.
    double t = t_start;
    auto lap = [&t, &leg]() {
        const double now = thread_cpu_s();
        const double d = now - t;
        t = now;
        leg.cpu_s += d;
        return d;
    };
    auto skip = [&t]() { t = thread_cpu_s(); };
    try {
        Built b = build(config);
        System &system = *b.system;
        Job &victim = *b.victim;
        spans.setup += lap();

        if (config.corunner_warmup_ops > 0 && !config.corunners.empty()) {
            victim.set_paused(true);
            const std::uint64_t target = config.corunner_warmup_ops;
            system.run_until([&system, &victim, target]() {
                std::uint64_t total = 0;
                for (auto &job : system.jobs()) {
                    if (job.get() != &victim)
                        total += job->stats().ops.value();
                }
                return total >= target;
            });
            victim.set_paused(false);
            system.churn_tick();
        }
        spans.warmup += lap();

        while (!victim.finished() && victim.workload().in_init_phase()) {
            const std::uint64_t before = victim.stats().ops.value();
            system.run_until([&victim, before]() {
                return victim.finished() ||
                       !victim.workload().in_init_phase() ||
                       victim.stats().ops.value() >= before + 4093;
            });
            system.churn_tick();
        }
        if (config.stop_corunners_after_init) {
            for (auto &job : system.jobs()) {
                if (job.get() != &victim)
                    job->set_paused(true);
            }
        }
        system.reset_measurement();
        spans.init += lap();

        const obs::StatSnapshot begin = system.stat_registry().snapshot();
        skip();
        std::uint64_t remaining = config.measure_ops;
        const std::uint64_t chunk_ops =
            system.churn_armed() ? 4096 : 64 * 1024;
        while (remaining > 0 && !victim.finished()) {
            const double c0 = thread_cpu_s();
            const std::uint64_t chunk = std::min(remaining, chunk_ops);
            const std::uint64_t before = victim.stats().ops.value();
            system.run_ops(victim, chunk);
            const std::uint64_t done = victim.stats().ops.value() - before;
            if (done == 0)
                break;
            remaining -= std::min(remaining, done);
            system.churn_tick();
            spans.chunk_ms.push_back((thread_cpu_s() - c0) * 1e3);
        }
        spans.measure += lap();

        spans.measured.push_back(
            delta(begin, system.stat_registry().snapshot()));
        for (const auto &job : system.jobs()) {
            const std::string name = job->workload().name();
            const double ops = static_cast<double>(job->stats().ops.value());
            auto &gens = spans.ops_by_generator;
            auto it = std::find_if(gens.begin(), gens.end(),
                                   [&name](const auto &g) {
                                       return g.first == name;
                                   });
            if (it == gens.end())
                gens.emplace_back(name, ops);
            else
                it->second += ops;
        }
        skip();

        // Collect, as run_scenario does (the armed-only metric growth
        // included, so the digests compare).
        MetricSet metrics = collect_metrics(system, victim);
        if (config.overcommit.armed() || config.churn.armed()) {
            const OvercommitStats &oc = system.overcommit_stats();
            metrics.set("oom_kills",
                        static_cast<double>(oc.oom_kills.value()));
            metrics.set("host_reclaim_sweeps",
                        static_cast<double>(oc.reclaim_sweeps.value()));
            metrics.set("host_balloon_pages",
                        static_cast<double>(oc.balloon_pages.value()));
            metrics.set("host_frames_unbacked",
                        static_cast<double>(oc.frames_unbacked.value()));
            metrics.set("churn_boots",
                        static_cast<double>(oc.churn_boots.value()));
        }
        if (system.dirty_ring_armed()) {
            std::uint64_t logged = 0, epochs = 0, ws = 0;
            for (unsigned k = 0; k < system.num_vms(); ++k) {
                if (const obs::DirtyRing *ring = system.dirty_ring(k)) {
                    logged += ring->stats().logged.value();
                    epochs += ring->stats().epochs.value();
                }
            }
            if (const obs::DirtyRing *ring = system.dirty_ring(0);
                ring != nullptr && ring->has_estimate())
                ws = ring->estimate_pages();
            metrics.set("dirty_ring_logged", static_cast<double>(logged));
            metrics.set("dirty_ring_epochs", static_cast<double>(epochs));
            metrics.set("ws_estimate_pages", static_cast<double>(ws));
            metrics.set("ws_guided_sweeps",
                        static_cast<double>(system.overcommit_stats()
                                                .ws_guided_sweeps.value()));
        }
        leg.stats = system.stat_registry().snapshot();
        leg.total_ops = system.total_steps();
        leg.victim_ops = victim.stats().ops.value();
        leg.victim_cycles = victim.stats().cycles.value();
        leg.walk_cycles = metrics.get("page_walk_cycles");
        leg.metrics = std::move(metrics);
        b.system.reset();
        spans.collect += lap();
        check_leg(leg, config);
    } catch (const SimError &e) {
        leg.error = e.what();
    }
    return leg;
}

/// CPU seconds run_scenario spends before its first simulated op.
double
setup_only(const ScenarioConfig &config)
{
    const double t0 = thread_cpu_s();
    Built b = build(config);
    return thread_cpu_s() - t0;
}

// ---- per-layer counts from a leg's snapshot ---------------------------------

/// Sum of every counter whose path ends with @p suffix (and, when given,
/// starts with @p prefix).
double
sum(const obs::StatSnapshot &s, const std::string &suffix,
    const std::string &prefix = "")
{
    double total = 0.0;
    for (const obs::StatSnapshot::Entry &e : s.entries()) {
        const std::string &p = e.path;
        if (e.is_histogram || p.size() < suffix.size() ||
            p.compare(p.size() - suffix.size(), suffix.size(), suffix) != 0 ||
            p.rfind(prefix, 0) != 0)
            continue;
        total += e.value;
    }
    return total;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

const char *const kAccessKinds[] = {"data", "guest-pt", "host-pt"};

/// Measured-phase event counts, summed over the traced legs, that the
/// layer reconciliation in run.py multiplies by per-call host costs.
Json
phase_counts(const Spans &spans)
{
    auto all = [&spans](const std::string &suffix,
                        const std::string &prefix = "") {
        double total = 0.0;
        for (const obs::StatSnapshot &s : spans.measured)
            total += sum(s, suffix, prefix);
        return total;
    };
    double accesses = 0.0;
    for (const char *kind : kAccessKinds)
        accesses += all(std::string(".") + kind + ".accesses", "vm0.hier");
    const double l1_hits = all(".walker.tlb_l1_hits");
    const double cache_l1 = all(".served.L1", "vm0.hier");

    Json gens = Json::object();
    for (const auto &[name, ops] : spans.ops_by_generator)
        gens.set(name, ops);
    Json o = Json::object();
    o.set("ops_by_generator", std::move(gens));
    o.set("tlb_l1_hits", l1_hits);
    o.set("tlb_l1_misses", all(".walker.translations") - l1_hits);
    o.set("walks", all(".walker.tlb_misses"));
    o.set("host_walks", all(".walker.host_walks"));
    o.set("cache_l1", cache_l1);
    o.set("cache_other", accesses - cache_l1);
    o.set("guest_faults", all(".kernel.faults_handled", "vm"));
    o.set("host_faults", all("host.kernel.faults_handled"));
    return o;
}

/// The per-layer counts of one untraced repetition, summed over its legs
/// unless the name says which leg.
Json
layer_counts(const std::vector<Leg> &legs, const ScenarioConfig &config)
{
    JsonObject o;
    auto both = [&legs](const std::string &suffix,
                        const std::string &prefix = "") {
        double total = 0.0;
        for (const Leg &leg : legs)
            total += sum(leg.stats, suffix, prefix);
        return total;
    };
    const Leg &ptm = legs.back();

    o.emplace_back("sim.churn_events",
                   both("host.overcommit.churn_boots") +
                       both("host.overcommit.churn_kills") +
                       both("host.overcommit.churn_forks"));
    o.emplace_back("sim.balloon_pages", both("host.overcommit.balloon_pages"));
    o.emplace_back("sim.reclaim_sweeps",
                   both("host.overcommit.reclaim_sweeps"));
    o.emplace_back("sim.oom_kills", both("host.overcommit.oom_kills"));

    o.emplace_back("mmu.translations", both(".walker.translations"));
    o.emplace_back("mmu.tlb_misses", both(".walker.tlb_misses"));
    o.emplace_back("mmu.host_walks", both(".walker.host_walks"));
    o.emplace_back("mmu.walk_cycles_per_walk",
                   ratio(both(".walker.walk_cycles"),
                         both(".walker.tlb_misses")));

    const double l1 = both(".l1tlb.hits");
    const double l2 = both(".l2tlb.hits");
    const double nested = both(".nested_tlb.hits");
    o.emplace_back("tlb.l1_hit_ratio", ratio(l1, l1 + both(".l1tlb.misses")));
    o.emplace_back("tlb.l2_hit_ratio", ratio(l2, l2 + both(".l2tlb.misses")));
    o.emplace_back("tlb.pwc_hits", both(".pwc_l0.hits") +
                                       both(".pwc_l1.hits") +
                                       both(".pwc_l2.hits"));
    o.emplace_back("tlb.nested_hit_ratio",
                   ratio(nested, nested + both(".nested_tlb.misses")));

    double accesses = 0.0;
    for (const char *kind : kAccessKinds)
        accesses += both(std::string(".") + kind + ".accesses", "vm0.hier");
    o.emplace_back("cache.accesses", accesses);
    o.emplace_back("cache.served_l1", both(".served.L1", "vm0.hier"));
    o.emplace_back("cache.served_l2", both(".served.L2", "vm0.hier"));
    o.emplace_back("cache.served_llc", both(".served.LLC", "vm0.hier"));
    o.emplace_back("cache.served_mem", both(".served.memory", "vm0.hier"));

    o.emplace_back("pt.guest_pt_accesses", both(".walker.guest_pt_accesses"));
    o.emplace_back("pt.host_pt_accesses", both(".walker.host_pt_accesses"));
    // The fragmentation metric is radix-shaped: 0 marks "not applicable"
    // on hashed tables.
    const bool radix = config.resolved_table() == "radix";
    for (const Leg &leg : legs) {
        o.emplace_back("pt.host_pt_frag." + leg.policy,
                       radix ? leg.metrics.get("host_pt_fragmentation")
                             : 0.0);
    }

    o.emplace_back("mem.allocs", both(".buddy.alloc_calls"));
    o.emplace_back("mem.frees", both(".buddy.free_calls"));
    o.emplace_back("mem.splits", both(".buddy.splits"));
    o.emplace_back("mem.merges", both(".buddy.merges"));
    o.emplace_back("mem.failed_allocs", both(".buddy.failed_allocs"));

    const double part_hits = both(".provider.part_hits");
    o.emplace_back("core.part_hits", part_hits);
    o.emplace_back("core.reservations",
                   both(".provider.reservations_created"));
    o.emplace_back("core.part_hit_ratio",
                   ratio(part_hits,
                         sum(ptm.stats, ".kernel.faults_handled", "vm")));

    o.emplace_back("vm.guest_faults", both(".kernel.faults_handled", "vm"));
    o.emplace_back("vm.pages_freed", both(".kernel.pages_freed", "vm"));
    o.emplace_back("vm.oom_events", both(".kernel.oom_events", "vm"));

    o.emplace_back("host.faults", both("host.kernel.faults_handled"));
    o.emplace_back("host.pages_unbacked", both("host.kernel.pages_unbacked"));

    o.emplace_back("obs.stat_entries", static_cast<double>(ptm.stats.size()));
    o.emplace_back("obs.dirty_ring_logged", both(".dirty_ring.logged"));

    double ops = 0.0;
    for (const Leg &leg : legs)
        ops += static_cast<double>(leg.total_ops);
    o.emplace_back("workload.ops", ops);
    return Json(std::move(o));
}

// ---- main -----------------------------------------------------------------

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_scenarios: %s\nusage: perfbench_scenarios --workload "
                 "NAME --seed N --seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Json
legs_json(const std::vector<Leg> &legs)
{
    JsonArray a;
    for (const Leg &leg : legs)
        a.push_back(leg.to_json());
    return Json(std::move(a));
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string name;
    long long seed = -1;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        char *end = nullptr;
        if (flag == "--workload") {
            name = argv[i + 1];
        } else if (flag == "--seed") {
            seed = std::strtoll(argv[i + 1], &end, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(argv[i + 1], &end);
        } else if (flag == "--trace") {
            trace = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad value for " + flag).c_str());
    }
    if (argc % 2 != 1)
        usage("flags take one value each");
    if (std::find(kWorkloads.begin(), kWorkloads.end(), name) ==
        kWorkloads.end())
        usage("unknown workload");
    if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1))
        usage("--seed, --seconds and --trace are required");

    const ScenarioConfig config =
        workload_config(name, static_cast<std::uint64_t>(seed));
    auto &streams = workload::StreamCache::instance();

    JsonObject out;
    out.emplace_back("workload", name);
    out.emplace_back("seed", static_cast<std::int64_t>(seed));

    if (trace == 0) {
        Probe probe;
        ProbeSampler sampler(probe);
        JsonArray reps;
        const double start = wall_s();
        while (reps.size() < 3 || wall_s() - start < seconds) {
            // Set-up takes a millisecond: time it several times per
            // repetition so its median is steady, with a probe slice
            // before and after each timing.
            JsonArray setup, setup_probe;
            setup_probe.push_back(probe.slice_s());
            for (int k = 0; k < kSetupSamples; ++k) {
                streams.clear();
                double s = 0.0;
                for (const char *policy : kPolicies)
                    s += setup_only(leg_config(config, policy));
                setup.push_back(s);
                setup_probe.push_back(probe.slice_s());
            }
            streams.clear();
            std::vector<Leg> legs;
            for (const char *policy : kPolicies)
                legs.push_back(
                    run_untraced(leg_config(config, policy), &sampler));
            JsonObject rep;
            rep.emplace_back("setup_s", Json(std::move(setup)));
            rep.emplace_back("setup_probe_s", Json(std::move(setup_probe)));
            rep.emplace_back("legs", legs_json(legs));
            reps.push_back(Json(std::move(rep)));
        }
        out.emplace_back("reps", Json(std::move(reps)));
        out.emplace_back("probe_mb", Probe::resident_mb());
        out.emplace_back("probe_l3_hits", probe.l3_hits());
    } else {
        // Untraced and traced repetitions alternate, so host noise hits
        // both sides of the trace-overhead comparison alike.
        JsonArray reps;
        const double start = wall_s();
        while (reps.size() < 3 || wall_s() - start < seconds) {
            streams.clear();
            std::vector<Leg> untraced;
            for (const char *policy : kPolicies)
                untraced.push_back(run_untraced(leg_config(config, policy)));
            streams.clear();
            Spans spans;
            std::vector<Leg> traced;
            for (const char *policy : kPolicies)
                traced.push_back(
                    run_traced(leg_config(config, policy), spans));

            // Simulated counts repeat exactly (the digests check it), so
            // the first repetition's stand for all.
            if (reps.empty()) {
                out.emplace_back("counts", layer_counts(untraced, config));
                out.emplace_back("phase_counts", phase_counts(spans));
                out.emplace_back("table", config.resolved_table());
            }
            JsonObject rep;
            rep.emplace_back("untraced", legs_json(untraced));
            rep.emplace_back("traced", legs_json(traced));
            rep.emplace_back("setup_s", spans.setup);
            rep.emplace_back("warmup_s", spans.warmup);
            rep.emplace_back("init_s", spans.init);
            rep.emplace_back("measure_s", spans.measure);
            rep.emplace_back("collect_s", spans.collect);
            JsonArray chunks;
            for (double ms : spans.chunk_ms)
                chunks.push_back(ms);
            rep.emplace_back("chunk_ms", Json(std::move(chunks)));
            reps.push_back(Json(std::move(rep)));
        }
        out.emplace_back("reps", Json(std::move(reps)));
    }
    out.emplace_back("peak_rss_mb", peak_rss_mb());
    std::printf("%s\n", Json(std::move(out)).dump().c_str());
    return 0;
}
