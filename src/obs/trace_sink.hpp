/**
 * @file
 * Opt-in event tracing in chrome://tracing JSON format.
 *
 * A TraceSink collects complete-duration ("ph":"X") events — one per
 * page walk, guest/host fault, and reclaim sweep — with u64 args
 * (gva/gpa/hpa, serving cache level, ...). Load the emitted file into
 * chrome://tracing or Perfetto; tracks are keyed by core (tid).
 *
 * Arming follows the null-check-hook discipline proved by the fault
 * injector: every emit site is guarded by a plain pointer check, the
 * sink only *observes* (it never feeds anything back into the
 * simulation), and timestamps come from already-computed simulated
 * cycles — so a disarmed run is bit-identical to a build without the
 * sink, and an armed run's simulated state is bit-identical to a
 * disarmed one.
 */
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace ptm::obs {

/// One key/value argument of a trace event. The key must be a string
/// literal (or otherwise outlive the sink): only the pointer is stored.
struct TraceArg {
    const char *key;
    std::uint64_t value;
};

class TraceSink {
  public:
    /// Args stored per event; extra args are dropped silently.
    static constexpr unsigned kMaxArgs = 6;

    /// @param max_events retention cap; events past it are counted in
    ///        dropped() instead of growing the buffer without bound.
    explicit TraceSink(std::size_t max_events = std::size_t{1} << 20);

    /**
     * Move the simulated-time cursor: @p ts is the current cycle count
     * of the core @p tid that is about to execute. Emit sites that fire
     * deep inside a component (kernel fault paths, reclaim sweeps) have
     * no cycle counter of their own and stamp events at the cursor via
     * event_now().
     */
    void
    set_now(std::uint64_t ts, unsigned tid)
    {
        now_ = ts;
        now_tid_ = tid;
    }
    std::uint64_t now() const { return now_; }

    /// Record one complete event ("ph":"X").
    void event(const char *name, const char *category, std::uint64_t ts,
               std::uint64_t dur, unsigned tid,
               std::initializer_list<TraceArg> args);

    /// Record one complete event at the current time cursor.
    void
    event_now(const char *name, const char *category, std::uint64_t dur,
              std::initializer_list<TraceArg> args)
    {
        event(name, category, now_, dur, now_tid_, args);
    }

    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }
    std::size_t dropped() const { return dropped_; }
    void clear();

    /// Serialize as a chrome://tracing JSON document.
    std::string to_json() const;

    /// Write to_json() to @p path; fatal on I/O failure.
    void write_json(const std::string &path) const;

  private:
    struct Event {
        const char *name;
        const char *category;
        std::uint64_t ts;
        std::uint64_t dur;
        unsigned tid;
        unsigned nargs;
        TraceArg args[kMaxArgs];
    };

    std::vector<Event> events_;
    std::size_t max_events_;
    std::size_t dropped_ = 0;
    std::uint64_t now_ = 0;
    unsigned now_tid_ = 0;
};

}  // namespace ptm::obs
