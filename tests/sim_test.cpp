/**
 * @file
 * Integration tests: whole-system scenarios asserting the paper's
 * qualitative claims end-to-end (small scales to keep ctest fast).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/ptemagnet_provider.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/suite.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"
#include "workload/workload.hpp"

namespace ptm::sim {
namespace {

PlatformConfig
small_platform()
{
    PlatformConfig platform;
    platform.guest_frames = 32 * 1024;
    platform.host_frames = 48 * 1024;
    return platform;
}

ScenarioConfig
small_scenario(const std::string &victim, bool ptemagnet)
{
    ScenarioConfig config;
    config.victim = victim;
    config.corunners = {{"objdet", 4}};
    config.policy_name = ptemagnet ? "ptemagnet" : "buddy";
    config.scale = 0.125;
    config.measure_ops = 60'000;
    config.corunner_warmup_ops = 20'000;
    config.platform = small_platform();
    return config;
}

TEST(SystemTest, JobRunsAndAccumulatesCycles)
{
    System system(small_platform(), 1);
    workload::WorkloadOptions options;
    options.scale = 0.125;
    Job &job = system.add_job(workload::make_workload("gcc", options));
    system.run_ops(job, 1000);
    EXPECT_GE(job.stats().ops.value(), 1000u);
    EXPECT_GT(job.stats().cycles.value(),
              job.stats().ops.value());
    EXPECT_GT(system.guest().stats().faults_handled.value(), 0u);
    EXPECT_GT(system.host().stats().pages_backed.value(), 0u);
}

TEST(SystemTest, DeterministicGivenSeed)
{
    auto run = []() {
        ScenarioConfig config = small_scenario("pagerank", false);
        config.measure_ops = 20'000;
        return run_scenario(config).victim_cycles;
    };
    EXPECT_EQ(run(), run());
}

TEST(SystemTest, SeedChangesOutcome)
{
    ScenarioConfig config = small_scenario("pagerank", false);
    config.measure_ops = 20'000;
    ScenarioResult a = run_scenario(config);
    config.seed = 99;
    ScenarioResult b = run_scenario(config);
    EXPECT_NE(a.victim_cycles, b.victim_cycles);
}

TEST(SystemTest, PtemagnetDrivesFragmentationToOne)
{
    ScenarioResult result = run_scenario(small_scenario("pagerank", true));
    EXPECT_DOUBLE_EQ(result.fragmentation.average_hpte_lines, 1.0);
    EXPECT_DOUBLE_EQ(result.fragmentation.fragmented_fraction, 0.0);
}

TEST(SystemTest, BaselineFragmentsUnderColocation)
{
    ScenarioResult result =
        run_scenario(small_scenario("pagerank", false));
    EXPECT_GT(result.fragmentation.average_hpte_lines, 1.5);
    EXPECT_GT(result.fragmentation.fragmented_fraction, 0.3);
}

TEST(SystemTest, PtemagnetNeverSlower)
{
    // The paper's deployment-critical claim (§6.1), probed on a
    // TLB-heavy and a TLB-light benchmark.
    for (const char *victim : {"pagerank", "gcc"}) {
        PairedResult pair = run_paired(small_scenario(victim, false));
        EXPECT_GE(pair.improvement_percent(), -0.5)
            << victim << " must not regress";
    }
}

TEST(SystemTest, PtemagnetCutsBuddyCallsRoughly8x)
{
    PairedResult pair = run_paired(small_scenario("pagerank", false));
    EXPECT_LT(pair.ptemagnet.buddy_calls * 4, pair.baseline.buddy_calls);
    EXPECT_GT(pair.ptemagnet.part_hits, pair.ptemagnet.buddy_calls);
}

TEST(SystemTest, MetricSetContainsPaperCounters)
{
    ScenarioResult result = run_scenario(small_scenario("xz", false));
    for (const char *name :
         {"execution_time", "cache_misses", "tlb_misses",
          "page_walk_cycles", "host_pt_walk_cycles",
          "guest_pt_mem_accesses", "host_pt_mem_accesses",
          "host_pt_fragmentation"}) {
        EXPECT_TRUE(result.metrics.has(name)) << name;
        EXPECT_GE(result.metrics.get(name), 0.0) << name;
    }
}

TEST(SystemTest, IdenticalAccessStreamsAcrossProviders)
{
    // PTEMagnet must not change *what* the application does — only the
    // frames behind it. TLB miss counts are a fingerprint of the access
    // stream.
    PairedResult pair = run_paired(small_scenario("cc", false));
    EXPECT_EQ(pair.baseline.metrics.get("tlb_misses"),
              pair.ptemagnet.metrics.get("tlb_misses"));
    EXPECT_EQ(pair.baseline.victim_ops, pair.ptemagnet.victim_ops);
}

TEST(SystemTest, GranularitySweepIsMonotonic)
{
    ScenarioConfig config = small_scenario("pagerank", true);
    config.measure_ops = 30'000;
    double prev = 100.0;
    for (unsigned pages : {2u, 4u, 8u}) {
        config.reservation_pages = pages;
        ScenarioResult result = run_scenario(config);
        EXPECT_LE(result.fragmentation.average_hpte_lines, prev + 1e-9)
            << pages;
        prev = result.fragmentation.average_hpte_lines;
    }
    EXPECT_DOUBLE_EQ(prev, 1.0) << "8-page groups pack perfectly";
}

TEST(SystemTest, UnusedReservationFractionIsSmall)
{
    ScenarioResult result = run_scenario(small_scenario("cc", true));
    EXPECT_LT(result.peak_unused_reservation_fraction, 0.02)
        << "paper: <0.2% of footprint; generous bound for small scale";
}

TEST(SystemTest, Table1ProtocolShowsFragmentationSlowdown)
{
    // Baseline-kernel execution with fragmented memory must be slower
    // than standalone at equal work, with TLB misses unchanged.
    ScenarioConfig config;
    config.victim = "pagerank";
    config.scale = 0.125;
    config.measure_ops = 60'000;
    config.stop_corunners_after_init = true;
    config.platform = small_platform();

    ScenarioResult standalone = run_scenario(config);
    config.corunners = {{"stress-ng", 8}};
    ScenarioResult colocated = run_scenario(config);

    EXPECT_GT(colocated.fragmentation.average_hpte_lines,
              standalone.fragmentation.average_hpte_lines * 1.5);
    EXPECT_GT(colocated.victim_cycles, standalone.victim_cycles);
    EXPECT_EQ(colocated.metrics.get("tlb_misses"),
              standalone.metrics.get("tlb_misses"));
}

TEST(SystemTest, RemovedTraceAndColdFieldsAreRefused)
{
    // Trace record/replay and the cold-start flush were removed, but
    // their ScenarioConfig fields remain. Setting one must fail the run
    // with a SimError naming the field, never run without it, and in a
    // suite it must fail only its own entry.
    struct Case {
        const char *field;
        void (*set)(ScenarioConfig &);
    };
    const Case cases[] = {
        {"trace_record",
         [](ScenarioConfig &c) { c.trace_record = "run.ptt"; }},
        {"trace_replay",
         [](ScenarioConfig &c) { c.trace_replay = "run.ptt"; }},
        {"cold_measurement",
         [](ScenarioConfig &c) { c.cold_measurement = true; }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.field);
        ScenarioConfig config = small_scenario("gcc", false);
        config.measure_ops = 1000;
        c.set(config);
        try {
            run_scenario(config);
            ADD_FAILURE() << "run_scenario ran with " << c.field << " set";
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find(c.field),
                      std::string::npos)
                << e.what();
        }

        ExperimentSuite suite("refused");
        suite.add("refused", config, RunKind::Single);
        SuiteOptions options;
        options.threads = 1;
        options.write_json = false;
        options.announce = false;
        SuiteResult result = suite.run(options);
        const EntryResult &entry = result.at("refused");
        EXPECT_TRUE(entry.failed());
        EXPECT_NE(entry.error.find(c.field), std::string::npos)
            << entry.error;
    }
}

TEST(SystemTest, ForkedJobSharesThenDiverges)
{
    System system(small_platform(), 2);
    workload::WorkloadOptions options;
    options.scale = 0.05;
    Job &parent =
        system.add_job(workload::make_workload("gcc", options));
    system.run_ops(parent, 2000);  // parent faults in some memory
    std::uint64_t parent_rss = parent.process().rss_pages();
    ASSERT_GT(parent_rss, 0u);

    Job &child =
        system.fork_job(parent, workload::make_workload("gcc", options));
    EXPECT_EQ(child.process().rss_pages(), parent_rss);

    // Both keep running; COW breaks must not corrupt translations.
    system.run_ops(parent, 2000);
    system.run_ops(child, 2000);
    EXPECT_GT(system.guest().stats().write_faults.value(), 0u);
}

TEST(SystemTest, StressWorkersChurnWithoutLeaks)
{
    System system(small_platform(), 2);
    workload::WorkloadOptions options;
    options.scale = 0.125;
    system.add_job(workload::make_workload("stress-ng", options));
    Job &anchor =
        system.add_job(workload::make_workload("pyaes", options));
    system.run_ops(anchor, 30'000);
    system.guest().buddy().check_invariants();
    // The churner's live memory is bounded by its live-chunk window.
    EXPECT_LT(system.guest().buddy().allocated_frames_count(),
              system.guest().buddy().total_frames() / 2);
}

/// Appends its id to a shared log on every op; finishes after @p ops.
class RecordingWorkload final : public workload::Workload {
  public:
    RecordingWorkload(int id, std::uint64_t ops, std::vector<int> *log)
        : id_(id), ops_(ops), log_(log)
    {
    }

    void
    setup(workload::WorkloadContext &ctx) override
    {
        base_ = ctx.mmap(kPages * kPageSize);
    }

    std::optional<workload::MemOp>
    next(workload::WorkloadContext &) override
    {
        if (done_ == ops_)
            return std::nullopt;
        log_->push_back(id_);
        return workload::MemOp{.gva = base_ + (done_++ % kPages) * kPageSize};
    }

    bool in_init_phase() const override { return false; }
    std::string name() const override { return "recorder"; }

  private:
    static constexpr std::uint64_t kPages = 4;
    int id_;
    std::uint64_t ops_;
    std::vector<int> *log_;
    Addr base_ = 0;
    std::uint64_t done_ = 0;
};

/// The round-robin contract, written out: a round visits every job in
/// order, skipping paused and finished ones, and gives each a slice of
/// slice_ops steps (a step on an exhausted workload finishes the job);
/// stop is checked before each round and after every slice, and a round
/// with no runnable job ends the run.
struct RefJob {
    int id;
    std::uint64_t left;
    bool paused = false;
    bool finished = false;
};

void
reference_run_until(std::vector<RefJob> &jobs, unsigned slice_ops,
                    std::vector<int> &log, const std::function<bool()> &stop)
{
    while (!stop()) {
        bool any_runnable = false;
        for (RefJob &job : jobs) {
            if (job.finished || job.paused)
                continue;
            any_runnable = true;
            for (unsigned i = 0; i < slice_ops && !job.finished; ++i) {
                if (job.left == 0) {
                    job.finished = true;
                } else {
                    log.push_back(job.id);
                    --job.left;
                }
            }
            if (stop())
                return;
        }
        if (!any_runnable)
            return;
    }
}

TEST(SchedulerOrder, PauseResumeFinishAddAndKillKeepRoundRobinOrder)
{
    PlatformConfig platform = small_platform();
    platform.slice_ops = 3;
    System system(platform, 8);
    ASSERT_EQ(system.boot_vm(), 1u);

    std::vector<int> log;
    std::vector<RefJob> ref_jobs;
    std::vector<int> ref_log;
    std::vector<Job *> jobs;
    auto add = [&](unsigned vm, std::uint64_t ops) {
        const int id = static_cast<int>(jobs.size());
        jobs.push_back(&system.add_job(
            vm, std::make_unique<RecordingWorkload>(id, ops, &log)));
        ref_jobs.push_back({id, ops});
    };
    // Runs both schedulers until each log holds @p target ops (or no job
    // can run) and compares the logs.
    auto run_to = [&](std::size_t target) {
        system.run_until([&]() { return log.size() >= target; });
        reference_run_until(ref_jobs, platform.slice_ops, ref_log,
                            [&]() { return ref_log.size() >= target; });
        ASSERT_EQ(log, ref_log) << "after running to " << target;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(jobs[i]->finished(), ref_jobs[i].finished) << i;
        }
    };
    auto pause = [&](int id, bool paused) {
        jobs[id]->set_paused(paused);
        ref_jobs[id].paused = paused;
    };

    add(0, 1000);
    add(0, 1000);
    add(0, 20);  // finishes inside a run, partway through a round
    add(0, 1000);
    add(1, 1000);
    run_to(40);
    pause(1, true);
    run_to(100);
    EXPECT_TRUE(jobs[2]->finished());
    pause(1, false);
    add(0, 1000);
    run_to(170);
    system.kill_vm(1, "churn_killed", "scheduler test");
    ref_jobs[4].finished = true;
    run_to(230);
    // Only job 0 left runnable: it runs to completion, and the run ends
    // when no job can run although stop never holds.
    for (int id : {1, 3, 5})
        pause(id, true);
    run_to(1'000'000);
    EXPECT_TRUE(jobs[0]->finished());
    EXPECT_EQ(std::count(log.begin(), log.end(), 0), 1000);
    // Resuming a job makes it runnable again.
    pause(3, false);
    run_to(log.size() + 30);
}

}  // namespace
}  // namespace ptm::sim
