#include "sim/suite.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace ptm::sim {

namespace {

void
apply_sweep_param(ScenarioConfig &config, const std::string &param,
                  double value)
{
    if (param == "reservation_pages")
        config.reservation_pages = static_cast<unsigned>(value);
    else if (param == "scale")
        config.scale = value;
    else if (param == "measure_ops")
        config.measure_ops = static_cast<std::uint64_t>(value);
    else if (param == "seed")
        config.seed = static_cast<std::uint64_t>(value);
    else if (param == "corunner_warmup_ops")
        config.corunner_warmup_ops = static_cast<std::uint64_t>(value);
    else if (param == "pressure_every")
        config.fault_plan.periodic_pressure(
            static_cast<std::uint64_t>(value));
    else if (param == "vms")
        config.with_vms(static_cast<unsigned>(value));
    else
        ptm_fatal("unknown sweep parameter '%s'", param.c_str());
}

/**
 * Text-valued sweep axes: the factory-name parameters sweep registered
 * names directly (with_policy/with_table validate and throw the listing
 * SimError on unknowns); anything else must parse as a number and is
 * forwarded to the numeric overload.
 */
void
apply_sweep_param(ScenarioConfig &config, const std::string &param,
                  const std::string &value)
{
    if (param == "policy") {
        config.with_policy(value);
        return;
    }
    if (param == "table") {
        config.with_table(value);
        return;
    }
    if (param == "workload") {
        config.with_workload(value);
        return;
    }
    char *end = nullptr;
    double numeric = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        ptm_fatal("sweep parameter '%s': non-numeric value '%s'",
                  param.c_str(), value.c_str());
    apply_sweep_param(config, param, numeric);
}

std::string
format_sweep_value(double value)
{
    if (value == std::floor(value) && std::fabs(value) < 0x1p53)
        return strprintf("%lld", static_cast<long long>(value));
    return strprintf("%g", value);
}

}  // namespace

// ---- SuiteResult -----------------------------------------------------

const EntryResult &
SuiteResult::at(const std::string &name) const
{
    for (const EntryResult &entry : entries_) {
        if (entry.entry.name == name)
            return entry;
    }
    ptm_fatal("suite '%s' has no entry '%s'", suite_name_.c_str(),
              name.c_str());
}

bool
SuiteResult::has(const std::string &name) const
{
    for (const EntryResult &entry : entries_) {
        if (entry.entry.name == name)
            return true;
    }
    return false;
}

std::vector<double>
SuiteResult::improvements() const
{
    std::vector<double> percents;
    for (const EntryResult &entry : entries_) {
        if (entry.is_paired() && !entry.failed())
            percents.push_back(entry.improvement_percent());
    }
    return percents;
}

std::size_t
SuiteResult::failed_count() const
{
    std::size_t n = 0;
    for (const EntryResult &entry : entries_)
        n += entry.failed() ? 1 : 0;
    return n;
}

double
SuiteResult::geomean() const
{
    return geomean_improvement(improvements());
}

Json
SuiteResult::to_json() const
{
    Json doc = Json::object();
    doc.set("suite", suite_name_);
    doc.set("threads", threads_);

    Json entries = Json::array();
    for (const EntryResult &entry : entries_) {
        Json e = Json::object();
        e.set("name", entry.entry.name);
        e.set("kind", entry.is_paired() ? "paired" : "single");
        if (!entry.entry.sweep_param.empty()) {
            e.set("sweep_param", entry.entry.sweep_param);
            if (!entry.entry.sweep_text.empty())
                e.set("sweep_value", entry.entry.sweep_text);
            else
                e.set("sweep_value", entry.entry.sweep_value);
        }
        e.set("config", sim::to_json(entry.entry.config));
        e.set("status", entry.failed() ? "failed" : "ok");
        if (entry.failed())
            e.set("error", entry.error);
        if (!entry.leg_errors.empty()) {
            Json errors = Json::array();
            for (const std::string &message : entry.leg_errors)
                errors.push_back(message);
            e.set("errors", std::move(errors));
        }
        if (entry.is_paired()) {
            e.set("baseline", sim::to_json(entry.paired.baseline));
            e.set("ptemagnet", sim::to_json(entry.paired.ptemagnet));
            e.set("improvement_percent", entry.improvement_percent());
        } else {
            e.set("result", sim::to_json(entry.single));
        }
        entries.push_back(std::move(e));
    }
    doc.set("entries", std::move(entries));

    std::vector<double> percents = improvements();
    if (!percents.empty()) {
        Json summary = Json::object();
        summary.set("paired_entries",
                    static_cast<std::uint64_t>(percents.size()));
        summary.set("geomean_improvement_percent",
                    geomean_improvement(percents));
        doc.set("summary", std::move(summary));
    }
    return doc;
}

std::string
SuiteResult::write_json(const std::string &dir) const
{
    std::string out_dir = dir;
    if (out_dir.empty()) {
        if (const char *env = std::getenv("PTM_BENCH_DIR"))
            out_dir = env;
        else
            out_dir = ".";
    }
    std::string path = out_dir + "/BENCH_" + suite_name_ + ".json";

    // Write-then-rename so a crash (or concurrent reader) never sees a
    // truncated BENCH file: the temp name stays in out_dir so the rename
    // is within one filesystem and therefore atomic.
    std::string tmp_path = path + ".tmp";
    {
        std::ofstream out(tmp_path, std::ios::trunc);
        if (!out)
            ptm_fatal("cannot write '%s'", tmp_path.c_str());
        out << to_json().dump(2) << '\n';
        out.flush();
        if (!out.good())
            ptm_fatal("short write to '%s'", tmp_path.c_str());
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
        std::remove(tmp_path.c_str());
        ptm_fatal("cannot rename '%s' to '%s'", tmp_path.c_str(),
                  path.c_str());
    }
    return path;
}

// ---- ExperimentSuite -------------------------------------------------

ExperimentSuite::ExperimentSuite(std::string name)
    : name_(std::move(name))
{
}

ScenarioConfig &
ExperimentSuite::add(const std::string &name, ScenarioConfig config,
                     RunKind kind)
{
    for (const SuiteEntry &entry : entries_) {
        if (entry.name == name)
            ptm_fatal("suite '%s': duplicate scenario '%s'",
                      name_.c_str(), name.c_str());
    }
    entries_.push_back(
        SuiteEntry{name, std::move(config), kind, "", 0.0, ""});
    return entries_.back().config;
}

void
ExperimentSuite::sweep(const std::string &label, const std::string &param,
                       const std::vector<double> &values,
                       ScenarioConfig base, RunKind kind)
{
    for (double value : values) {
        ScenarioConfig config = base;
        apply_sweep_param(config, param, value);
        std::string name =
            label + "/" + param + "=" + format_sweep_value(value);
        add(name, std::move(config), kind);
        entries_.back().sweep_param = param;
        entries_.back().sweep_value = value;
    }
}

void
ExperimentSuite::sweep(const std::string &label, const std::string &param,
                       const std::vector<std::string> &values,
                       ScenarioConfig base, RunKind kind)
{
    for (const std::string &value : values) {
        ScenarioConfig config = base;
        apply_sweep_param(config, param, value);
        std::string name = label + "/" + param + "=" + value;
        add(name, std::move(config), kind);
        entries_.back().sweep_param = param;
        entries_.back().sweep_text = value;
    }
}

SuiteResult
ExperimentSuite::run(const SuiteOptions &options) const
{
    SuiteResult result;
    result.suite_name_ = name_;
    result.entries_.reserve(entries_.size());

    std::size_t runs = 0;
    for (const SuiteEntry &entry : entries_) {
        EntryResult &slot = result.entries_.emplace_back();
        slot.entry = entry;
        runs += entry.kind == RunKind::Paired ? 2 : 1;
    }

    unsigned threads =
        options.threads != 0 ? options.threads
                             : ThreadPool::default_threads();
    if (runs < threads)
        threads = runs != 0 ? static_cast<unsigned>(runs) : 1;
    result.threads_ = threads;

    if (options.announce) {
        std::fprintf(stderr,
                     "[suite %s] %zu scenarios, %zu runs, %u threads\n",
                     name_.c_str(), entries_.size(), runs, threads);
    }

    {
        ThreadPool pool(threads);

        // Entry bookkeeping (status / errors) is shared by the two legs
        // of a paired entry, which may fail concurrently.
        std::mutex status_mutex;

        // One leg: run and store into its result slot; a SimError marks
        // the whole entry Failed. Anything else — ptm_panic aborts,
        // bad_alloc, logic errors — escapes to the pool and is rethrown
        // from wait(): crash isolation covers *recoverable* per-run
        // errors only.
        auto run_leg = [&status_mutex](EntryResult &slot,
                                       ScenarioResult &out,
                                       ScenarioConfig config) {
            try {
                out = run_scenario(config);
            } catch (const SimError &e) {
                std::lock_guard<std::mutex> lock(status_mutex);
                slot.status = EntryStatus::Failed;
                slot.leg_errors.push_back(e.what());
                if (slot.error.empty())
                    slot.error = e.what();
            }
        };

        for (EntryResult &slot : result.entries_) {
            if (slot.entry.kind == RunKind::Paired) {
                // The two legs of a pair are independent runs too; the
                // pool executes them concurrently, unlike run_paired.
                pool.submit([&run_leg, &slot]() {
                    run_leg(slot, slot.paired.baseline,
                            baseline_leg(slot.entry.config));
                });
                pool.submit([&run_leg, &slot]() {
                    run_leg(slot, slot.paired.ptemagnet,
                            treatment_leg(slot.entry.config));
                });
            } else {
                pool.submit([&run_leg, &slot]() {
                    run_leg(slot, slot.single, slot.entry.config);
                });
            }
        }
        pool.wait();
    }

    if (options.announce && result.failed_count() > 0) {
        std::fprintf(stderr, "[suite %s] %zu of %zu entries failed\n",
                     name_.c_str(), result.failed_count(),
                     result.entries_.size());
    }

    if (options.write_json) {
        std::string path = result.write_json(options.json_dir);
        if (options.announce)
            std::fprintf(stderr, "[suite %s] results -> %s\n",
                         name_.c_str(), path.c_str());
    }
    return result;
}

// ---- reporting -------------------------------------------------------

void
print_improvement_table(const SuiteResult &result, int name_width)
{
    std::printf("%-*s %14s %14s %13s\n", name_width, "benchmark",
                "base cycles", "ptm cycles", "improvement");
    for (const EntryResult &entry : result.entries()) {
        if (!entry.is_paired())
            continue;
        if (entry.failed()) {
            std::printf("%-*s %14s %14s %13s\n", name_width,
                        entry.entry.name.c_str(), "-", "-", "FAILED");
            continue;
        }
        std::printf("%-*s %14llu %14llu %+12.1f%%\n", name_width,
                    entry.entry.name.c_str(),
                    static_cast<unsigned long long>(
                        entry.paired.baseline.victim_cycles),
                    static_cast<unsigned long long>(
                        entry.paired.ptemagnet.victim_cycles),
                    entry.improvement_percent());
    }
    std::printf("%-*s %14s %14s %+12.1f%%\n", name_width, "Geomean", "",
                "", result.geomean());
}

// ---- JSON serialization ----------------------------------------------

Json
to_json(const ScenarioConfig &config)
{
    Json j = Json::object();
    j.set("victim", config.victim);
    if (!config.workload_params.empty()) {
        Json params = Json::object();
        for (const auto &[key, value] : config.workload_params.entries())
            params.set(key, value);
        j.set("workload_params", std::move(params));
    }
    Json corunners = Json::array();
    for (const CorunnerSpec &spec : config.corunners) {
        Json c = Json::object();
        c.set("name", spec.name);
        c.set("workers", spec.workers);
        corunners.push_back(std::move(c));
    }
    j.set("corunners", std::move(corunners));
    j.set("policy", config.resolved_policy());
    if (!config.policy_params.empty()) {
        Json params = Json::object();
        for (const auto &[key, value] : config.policy_params.entries())
            params.set(key, value);
        j.set("policy_params", std::move(params));
    }
    j.set("table", config.resolved_table());
    if (!config.platform.table_params.empty()) {
        Json params = Json::object();
        for (const auto &[key, value] :
             config.platform.table_params.entries())
            params.set(key, value);
        j.set("table_params", std::move(params));
    }
    j.set("reservation_pages", config.reservation_pages);
    j.set("scale", config.scale);
    j.set("measure_ops", config.measure_ops);
    j.set("seed", config.seed);
    j.set("corunner_warmup_ops", config.corunner_warmup_ops);
    j.set("stop_corunners_after_init", config.stop_corunners_after_init);
    j.set("measure_init", config.measure_init);
    // Multi-VM axes only appear when exercised, keeping single-VM BENCH
    // documents byte-stable.
    if (config.multi_vm()) {
        j.set("vms", config.vms);
        if (config.overcommit.armed()) {
            Json oc = Json::object();
            oc.set("low_watermark_frames",
                   config.overcommit.low_watermark_frames);
            oc.set("high_watermark_frames",
                   config.overcommit.high_watermark_frames);
            oc.set("balloon_step", config.overcommit.balloon_step);
            oc.set("backoff_initial", config.overcommit.backoff_initial);
            oc.set("backoff_max", config.overcommit.backoff_max);
            oc.set("oom_kill_enabled", config.overcommit.oom_kill_enabled);
            j.set("overcommit", std::move(oc));
        }
        if (config.churn.armed()) {
            Json churn = Json::object();
            churn.set("seed", config.churn.seed);
            churn.set("workload", config.churn.workload);
            churn.set("scale", config.churn.scale);
            churn.set("guest_frames", config.churn.guest_frames);
            churn.set("boots",
                      config.churn.count(ChurnAction::Boot));
            churn.set("kills",
                      config.churn.count(ChurnAction::Kill));
            churn.set("forks",
                      config.churn.count(ChurnAction::Fork));
            j.set("churn", std::move(churn));
        }
    }
    // Same only-when-armed contract as the multi-VM axes above.
    if (config.dirty_ring.armed()) {
        Json ring = Json::object();
        ring.set("ring_entries", config.dirty_ring.ring_entries);
        ring.set("epoch_ops", config.dirty_ring.epoch_ops);
        ring.set("reclaim_by_ws", config.dirty_ring.reclaim_by_ws);
        j.set("dirty_ring", std::move(ring));
    }
    return j;
}

Json
to_json(const ScenarioResult &result)
{
    Json j = Json::object();

    Json metrics = Json::object();
    for (const auto &[name, value] : result.metrics.values())
        metrics.set(name, value);
    j.set("metrics", std::move(metrics));

    j.set("victim_cycles", result.victim_cycles);
    j.set("victim_ops", result.victim_ops);
    j.set("victim_rss_pages", result.victim_rss_pages);

    Json frag = Json::object();
    frag.set("average_hpte_lines", result.fragmentation.average_hpte_lines);
    frag.set("fragmented_fraction",
             result.fragmentation.fragmented_fraction);
    frag.set("max_hpte_lines", result.fragmentation.max_hpte_lines);
    frag.set("groups", result.fragmentation.groups);
    j.set("fragmentation", std::move(frag));

    j.set("peak_unused_reservation_fraction",
          result.peak_unused_reservation_fraction);
    j.set("reservations_created", result.reservations_created);
    j.set("part_hits", result.part_hits);
    j.set("buddy_calls", result.buddy_calls);
    j.set("provider_held_pages", result.provider_held_pages);

    Json rob = Json::object();
    rob.set("fault_plan_armed", result.fault_plan_armed);
    rob.set("injected_denials", result.injected_denials);
    rob.set("pressure_episodes", result.pressure_episodes);
    rob.set("reclaim_sweeps", result.reclaim_sweeps);
    rob.set("frames_reclaimed", result.frames_reclaimed);
    rob.set("fallback_singles", result.fallback_singles);
    rob.set("oom_events", result.oom_events);
    // Overcommit-survival telemetry, present only for multi-VM runs so
    // historic single-VM documents keep their exact shape.
    if (!result.vms.empty()) {
        rob.set("host_reclaim_sweeps", result.host_reclaim_sweeps);
        rob.set("host_emergency_sweeps", result.host_emergency_sweeps);
        rob.set("host_backoff_waits", result.host_backoff_waits);
        rob.set("host_balloon_pages", result.host_balloon_pages);
        rob.set("host_frames_unbacked", result.host_frames_unbacked);
        rob.set("oom_kills", result.oom_kills);
        rob.set("churn_boots", result.churn_boots);
        rob.set("churn_kills", result.churn_kills);
        rob.set("churn_forks", result.churn_forks);
        rob.set("churn_boot_failures", result.churn_boot_failures);
        Json vms = Json::array();
        for (const VmRecord &rec : result.vms) {
            Json v = Json::object();
            v.set("vm", rec.vm);
            v.set("status", rec.status);
            if (!rec.status_detail.empty())
                v.set("status_detail", rec.status_detail);
            v.set("balloon_pages", rec.balloon_pages);
            v.set("frames_repossessed", rec.frames_repossessed);
            v.set("backed_pages", rec.backed_pages);
            v.set("walk_cycles", rec.walk_cycles);
            v.set("ops", rec.ops);
            v.set("oom_events", rec.oom_events);
            // Present only under an armed ring, so pre-ring multi-VM
            // documents keep their exact per-VM shape.
            if (result.dirty_ring_armed)
                v.set("ws_estimate_pages", rec.ws_estimate_pages);
            vms.push_back(std::move(v));
        }
        rob.set("vms", std::move(vms));
    }
    // Working-set estimation telemetry, present only under an armed ring.
    if (result.dirty_ring_armed) {
        Json ring = Json::object();
        ring.set("logged", result.dirty_ring_logged);
        ring.set("harvests", result.dirty_ring_harvests);
        ring.set("epochs", result.dirty_ring_epochs);
        ring.set("ws_estimate_pages", result.ws_estimate_pages);
        ring.set("ws_guided_sweeps", result.ws_guided_sweeps);
        rob.set("dirty_ring", std::move(ring));
    }
    j.set("robustness", std::move(rob));

    Json perf = Json::object();
    perf.set("host_seconds", result.host_seconds);
    perf.set("total_ops", result.total_ops);
    perf.set("ops_per_second", result.ops_per_second());
    j.set("sim_perf", std::move(perf));

    // Registry snapshot: counters as numbers, histograms as summary
    // objects, keyed by their hierarchical path in registration order.
    Json stats = Json::object();
    for (const obs::StatSnapshot::Entry &entry : result.stats.entries()) {
        if (entry.is_histogram) {
            const obs::HistogramSummary &h = entry.histogram;
            Json hist = Json::object();
            hist.set("count", h.count);
            hist.set("sum", h.sum);
            hist.set("min", h.min);
            hist.set("max", h.max);
            hist.set("mean", h.mean);
            hist.set("p50", h.p50);
            hist.set("p90", h.p90);
            hist.set("p99", h.p99);
            stats.set(entry.path, std::move(hist));
        } else {
            stats.set(entry.path, entry.value);
        }
    }
    j.set("stats", std::move(stats));
    return j;
}

ScenarioResult
scenario_result_from_json(const Json &json)
{
    ScenarioResult result;
    for (const auto &[name, value] : json.at("metrics").as_object())
        result.metrics.set(name, value.as_double());
    result.victim_cycles = json.at("victim_cycles").as_u64();
    result.victim_ops = json.at("victim_ops").as_u64();
    result.victim_rss_pages = json.at("victim_rss_pages").as_u64();

    const Json &frag = json.at("fragmentation");
    result.fragmentation.average_hpte_lines =
        frag.at("average_hpte_lines").as_double();
    result.fragmentation.fragmented_fraction =
        frag.at("fragmented_fraction").as_double();
    result.fragmentation.max_hpte_lines =
        frag.at("max_hpte_lines").as_double();
    result.fragmentation.groups = frag.at("groups").as_u64();

    result.peak_unused_reservation_fraction =
        json.at("peak_unused_reservation_fraction").as_double();
    result.reservations_created =
        json.at("reservations_created").as_u64();
    result.part_hits = json.at("part_hits").as_u64();
    result.buddy_calls = json.at("buddy_calls").as_u64();
    // Older BENCH files predate the memory-bloat axis; leave the zero.
    if (json.contains("provider_held_pages"))
        result.provider_held_pages =
            json.at("provider_held_pages").as_u64();

    // Older BENCH files predate the robustness block; leave the zeros.
    if (json.contains("robustness")) {
        const Json &rob = json.at("robustness");
        result.fault_plan_armed = rob.at("fault_plan_armed").as_bool();
        result.injected_denials = rob.at("injected_denials").as_u64();
        result.pressure_episodes = rob.at("pressure_episodes").as_u64();
        result.reclaim_sweeps = rob.at("reclaim_sweeps").as_u64();
        result.frames_reclaimed = rob.at("frames_reclaimed").as_u64();
        result.fallback_singles = rob.at("fallback_singles").as_u64();
        result.oom_events = rob.at("oom_events").as_u64();
        // Each multi-VM key guarded on its own: documents from single-VM
        // runs (and older BENCH files) simply lack them.
        if (rob.contains("host_reclaim_sweeps"))
            result.host_reclaim_sweeps =
                rob.at("host_reclaim_sweeps").as_u64();
        if (rob.contains("host_emergency_sweeps"))
            result.host_emergency_sweeps =
                rob.at("host_emergency_sweeps").as_u64();
        if (rob.contains("host_backoff_waits"))
            result.host_backoff_waits =
                rob.at("host_backoff_waits").as_u64();
        if (rob.contains("host_balloon_pages"))
            result.host_balloon_pages =
                rob.at("host_balloon_pages").as_u64();
        if (rob.contains("host_frames_unbacked"))
            result.host_frames_unbacked =
                rob.at("host_frames_unbacked").as_u64();
        if (rob.contains("oom_kills"))
            result.oom_kills = rob.at("oom_kills").as_u64();
        if (rob.contains("churn_boots"))
            result.churn_boots = rob.at("churn_boots").as_u64();
        if (rob.contains("churn_kills"))
            result.churn_kills = rob.at("churn_kills").as_u64();
        if (rob.contains("churn_forks"))
            result.churn_forks = rob.at("churn_forks").as_u64();
        if (rob.contains("churn_boot_failures"))
            result.churn_boot_failures =
                rob.at("churn_boot_failures").as_u64();
        if (rob.contains("vms")) {
            for (const Json &v : rob.at("vms").as_array()) {
                VmRecord rec;
                rec.vm = static_cast<unsigned>(v.at("vm").as_u64());
                rec.status = v.at("status").as_string();
                if (v.contains("status_detail"))
                    rec.status_detail =
                        v.at("status_detail").as_string();
                rec.balloon_pages = v.at("balloon_pages").as_u64();
                rec.frames_repossessed =
                    v.at("frames_repossessed").as_u64();
                rec.backed_pages = v.at("backed_pages").as_u64();
                rec.walk_cycles = v.at("walk_cycles").as_u64();
                rec.ops = v.at("ops").as_u64();
                rec.oom_events = v.at("oom_events").as_u64();
                if (v.contains("ws_estimate_pages"))
                    rec.ws_estimate_pages =
                        v.at("ws_estimate_pages").as_u64();
                result.vms.push_back(std::move(rec));
            }
        }
        // Pre-ring BENCH files lack the block; leave the zeros.
        if (rob.contains("dirty_ring")) {
            const Json &ring = rob.at("dirty_ring");
            result.dirty_ring_armed = true;
            result.dirty_ring_logged = ring.at("logged").as_u64();
            result.dirty_ring_harvests = ring.at("harvests").as_u64();
            result.dirty_ring_epochs = ring.at("epochs").as_u64();
            result.ws_estimate_pages =
                ring.at("ws_estimate_pages").as_u64();
            result.ws_guided_sweeps =
                ring.at("ws_guided_sweeps").as_u64();
        }
    }

    const Json &perf = json.at("sim_perf");
    result.host_seconds = perf.at("host_seconds").as_double();
    result.total_ops = perf.at("total_ops").as_u64();

    // Older BENCH files predate the stats block; leave it empty.
    if (json.contains("stats")) {
        for (const auto &[path, value] : json.at("stats").as_object()) {
            if (value.is_object()) {
                obs::HistogramSummary h;
                h.count = value.at("count").as_u64();
                h.sum = value.at("sum").as_u64();
                h.min = value.at("min").as_u64();
                h.max = value.at("max").as_u64();
                h.mean = value.at("mean").as_double();
                h.p50 = value.at("p50").as_u64();
                h.p90 = value.at("p90").as_u64();
                h.p99 = value.at("p99").as_u64();
                result.stats.add_histogram(path, h);
            } else {
                result.stats.add_counter(path, value.as_double());
            }
        }
    }
    return result;
}

}  // namespace ptm::sim
