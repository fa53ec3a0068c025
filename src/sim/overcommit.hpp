/**
 * @file
 * Host-memory overcommit survival: the policy knobs of the host reclaim
 * daemon (ballooning, bounded-backoff sweeps, deterministic OOM-kill) and
 * the seeded VM churn engine (boot/kill/fork storms).
 *
 * Mechanisms live lower in the stack (GuestKernel::balloon_inflate,
 * HostKernel::unback / destroy_vm); orchestration lives in sim::System,
 * which is the only layer that sees both sides. Everything here is plain
 * data so ScenarioConfig can carry it by value.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/stat_registry.hpp"

namespace ptm::sim {

/**
 * Watermark/backoff policy of the host reclaim daemon. Inert unless
 * armed(); an unarmed System is bit-identical to the historic single-VM
 * path (one branch per host fault).
 *
 * The daemon's clock is armed host faults: each fault below the low
 * watermark may trigger a balloon sweep toward the high watermark, with
 * bounded exponential backoff between unproductive sweeps.
 */
struct OvercommitPolicy {
    /// Sweep when host free frames drop below this. 0 disarms everything.
    std::uint64_t low_watermark_frames = 0;
    /// Sweep target: balloon until free frames reach this.
    std::uint64_t high_watermark_frames = 0;
    /// Frames requested from each VM's balloon per sweep visit.
    std::uint64_t balloon_step = 256;
    /// Daemon ticks (armed host faults) between sweeps after a productive
    /// one; doubled after each unproductive sweep up to backoff_max.
    std::uint64_t backoff_initial = 64;
    std::uint64_t backoff_max = 4096;
    /// Allow the OOM-killer as the final rung of the survival ladder. It
    /// kills the VM backing the most host frames (lowest index on ties),
    /// never VM 0 (the measured victim's VM) nor the faulting VM.
    bool oom_kill_enabled = true;

    bool armed() const { return low_watermark_frames > 0; }

    // ---- fluent setters --------------------------------------------
    OvercommitPolicy &
    with_watermarks(std::uint64_t low, std::uint64_t high)
    {
        low_watermark_frames = low;
        high_watermark_frames = high;
        return *this;
    }
    OvercommitPolicy &
    with_balloon_step(std::uint64_t frames)
    {
        balloon_step = frames;
        return *this;
    }
    OvercommitPolicy &
    with_backoff(std::uint64_t initial, std::uint64_t max)
    {
        backoff_initial = initial;
        backoff_max = max;
        return *this;
    }
    OvercommitPolicy &
    with_oom_kill(bool enabled)
    {
        oom_kill_enabled = enabled;
        return *this;
    }
};

/**
 * Per-VM dirty-ring arming (obs/dirty_ring.hpp). Inert unless armed():
 * a disarmed System never touches a ring on the hot path, keeping
 * single-VM golden snapshots byte-stable. When armed alongside an
 * OvercommitPolicy and reclaim_by_ws, the reclaim daemon balloons VMs
 * in descending idle-memory order (backed frames minus the last epoch's
 * working-set estimate) instead of slot order.
 */
struct DirtyRingConfig {
    /// Ring capacity in entries; 0 disarms dirty logging entirely.
    std::uint64_t ring_entries = 0;
    /// Simulated ops per estimation epoch.
    std::uint64_t epoch_ops = 65536;
    /// Feed the estimate to the reclaim daemon's sweep order.
    bool reclaim_by_ws = true;

    bool armed() const { return ring_entries > 0; }

    // ---- fluent setters --------------------------------------------
    DirtyRingConfig &
    with_ring_entries(std::uint64_t entries)
    {
        ring_entries = entries;
        return *this;
    }
    DirtyRingConfig &
    with_epoch_ops(std::uint64_t ops)
    {
        epoch_ops = ops;
        return *this;
    }
    DirtyRingConfig &
    with_reclaim_by_ws(bool enabled)
    {
        reclaim_by_ws = enabled;
        return *this;
    }
};

/// Host-side overcommit + churn activity, registered under
/// "host.overcommit.*" when the policy (or a churn plan) is armed.
struct OvercommitStats {
    Counter reclaim_sweeps;       ///< all sweeps, emergency included
    Counter emergency_sweeps;     ///< sweeps forced by a failing fault
    Counter backoff_waits;        ///< ticks skipped below the watermark
    Counter balloon_pages;        ///< guest frames taken by balloons
    Counter frames_unbacked;      ///< host frames freed by balloon sweeps
    Counter ws_guided_sweeps;     ///< sweeps ordered by dirty-ring idle
    Counter oom_kills;
    Counter churn_boots;
    Counter churn_kills;
    Counter churn_forks;
    Counter churn_boot_failures;  ///< boots/forks refused (no core/frames)

    void register_stats(obs::StatRegistry &registry,
                        const std::string &prefix);
};

/// What one churn event does when its step count is reached.
enum class ChurnAction : std::uint8_t {
    Boot,  ///< boot a fresh VM with one churn job
    Kill,  ///< kill the oldest live churn-booted VM
    Fork,  ///< fork a job inside a live churn VM (round-robin)
};

struct ChurnEvent {
    std::uint64_t at_step = 0;  ///< fires once System::total_steps() >= this
    ChurnAction action = ChurnAction::Boot;
};

/**
 * Seeded VM churn schedule. Events are keyed on the simulated op count
 * and applied between run chunks (System::churn_tick), so the schedule is
 * deterministic and thread-count-invariant exactly like FaultPlan: the
 * same (plan, scenario seed) always boots/kills/forks the same VMs at the
 * same simulated instants.
 */
struct ChurnPlan {
    std::uint64_t seed = 1;
    /// Workload each churn-booted VM runs (catalog name).
    std::string workload = "stress-ng";
    double scale = 0.02;
    /// Guest-physical frames of churn-booted VMs; 0 = platform default.
    std::uint64_t guest_frames = 0;
    /// Schedule, kept sorted by at_step (storm() guarantees it).
    std::vector<ChurnEvent> events;

    bool armed() const { return !events.empty(); }
    std::uint64_t count(ChurnAction action) const;

    // ---- fluent setters --------------------------------------------
    ChurnPlan &
    with_seed(std::uint64_t s)
    {
        seed = s;
        return *this;
    }
    ChurnPlan &
    with_workload(std::string name)
    {
        workload = std::move(name);
        return *this;
    }
    ChurnPlan &
    with_scale(double s)
    {
        scale = s;
        return *this;
    }
    ChurnPlan &
    with_guest_frames(std::uint64_t frames)
    {
        guest_frames = frames;
        return *this;
    }
    /**
     * A seeded storm: @p boots boot, @p kills kill, and @p forks fork
     * events drawn uniformly over [begin_step, end_step) and stably
     * sorted by step (ties keep the boot/kill/fork draw order).
     */
    static ChurnPlan storm(std::uint64_t seed, std::uint64_t begin_step,
                           std::uint64_t end_step, std::uint64_t boots,
                           std::uint64_t kills, std::uint64_t forks);
};

}  // namespace ptm::sim
