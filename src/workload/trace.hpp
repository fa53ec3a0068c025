/**
 * @file
 * Record/replay trace frontend for workload op streams (.ptt format).
 *
 * A trace captures the exact serial stream one job feeds the simulator —
 * memory operations plus the context interactions interleaved with them
 * (mmap/munmap/free_page) and the init-phase boundary — so a recorded
 * scenario can be replayed bit-identically without re-running the
 * generators, and one recorded stream can drive every {policy × table}
 * leg of a sweep (op streams are policy-independent: scheduling is done
 * in op space and generators never read kernel state).
 *
 * Encoding: one opcode byte per event; op events carry the gva as a
 * zigzag-varint delta from the previous op's gva (sequential patterns
 * make most deltas one byte). Interaction operands are plain varints.
 * Events are self-delimiting and the per-job stream is a flat byte run,
 * so a .ptt file can be consumed from an mmap'd buffer as-is. A malformed
 * stream fails its run with a SimError, whether it breaks while the file
 * is loaded or while a job decodes it mid-run.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "workload/workload.hpp"

namespace ptm::workload {

struct WorkloadOptions;

namespace ptt {

/// File magic of a .ptt trace.
inline constexpr char kMagic[8] = {'P', 'T', 'M', 'T', 'R', 'C', '1', '\n'};

/// Stream event opcodes. kOpRead/kOpWrite differ only in bit 0 so the
/// decoder reads the write flag straight from the opcode.
enum Event : std::uint8_t {
    kOpRead = 0x00,    ///< + zigzag-varint gva delta
    kOpWrite = 0x01,   ///< + zigzag-varint gva delta
    kMmap = 0x02,      ///< + varint bytes, varint returned base (checked)
    kMunmap = 0x03,    ///< + varint base address
    kFreePage = 0x04,  ///< + varint gva
    kSetupEnd = 0x05,  ///< end of the setup() interaction section
    kInitEnd = 0x06,   ///< in_init_phase() turns false after this point
    kEos = 0x07,       ///< the workload finished (next() returned nullopt)
};

void put_varint(std::vector<std::uint8_t> &out, std::uint64_t v);

inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

}  // namespace ptt

/// Append-side state of one job stream.
class StreamEncoder {
  public:
    void op(const MemOp &op);
    void mmap(Addr bytes, Addr base);
    void munmap(Addr base);
    void free_page(Addr gva);
    void setup_end();
    void init_end();
    void eos();

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
    std::uint64_t prev_gva_ = 0;
};

/// Read-side position within one encoded stream; the buffer itself is
/// passed to every decode call.
struct DecodeState {
    std::size_t offset = 0;
    std::uint64_t prev_gva = 0;
    bool in_init = true;
    bool finished = false;
};

/**
 * Apply the setup section (events before kSetupEnd) to @p ctx, plus an
 * immediately following kInitEnd if the workload recorded none of its
 * init phase.
 * @throws SimError if the stream is malformed or has no kSetupEnd.
 */
void decode_setup(const std::uint8_t *data, std::size_t len,
                  DecodeState &state, WorkloadContext &ctx);

/**
 * Decode up to @p max ops, applying interaction events to @p ctx.
 * Interactions are applied only before the first op of the call; a later
 * interaction ends the call, and the next call applies it first. kInitEnd
 * is consumed eagerly wherever it appears (it only moves a flag, and
 * observers look between scheduler slices). Returns the op count; 0 with
 * state.finished set means end-of-stream, 0 without it means the buffer
 * ran dry.
 * @throws SimError if the stream is malformed.
 */
unsigned decode_ops(const std::uint8_t *data, std::size_t len,
                    DecodeState &state, WorkloadContext &ctx, MemOp *out,
                    unsigned max);

/**
 * Transparent recorder: delegates to the wrapped workload while encoding
 * everything it does, in serial order.
 */
class RecordingWorkload final : public Workload {
  public:
    explicit RecordingWorkload(std::unique_ptr<Workload> inner);
    ~RecordingWorkload() override;

    void setup(WorkloadContext &ctx) override;
    std::optional<MemOp> next(WorkloadContext &ctx) override;
    bool in_init_phase() const override { return inner_->in_init_phase(); }
    std::string name() const override { return inner_->name(); }

    const StreamEncoder &encoder() const { return enc_; }

  private:
    class RecordingContext;

    /// Emit kInitEnd the moment the inner workload leaves its init phase.
    void note_init_phase();

    std::unique_ptr<Workload> inner_;
    StreamEncoder enc_;
    bool init_end_recorded_ = false;
    bool eos_recorded_ = false;
};

/**
 * A parsed .ptt trace: one named stream per job, victim first, in job
 * creation order.
 */
class TraceFile {
  public:
    struct JobStream {
        std::string name;
        std::vector<std::uint8_t> bytes;
    };

    /// Parse @p path. @throws SimError on I/O or format problems.
    static TraceFile load(const std::string &path);

    /// Serialize the recorders' streams to @p path (temp file + rename,
    /// so sweep legs never observe a half-written trace).
    /// @throws SimError on I/O problems.
    static void write(const std::string &path,
                      const std::vector<const RecordingWorkload *> &jobs);

    unsigned job_count() const
    {
        return static_cast<unsigned>(jobs_.size());
    }
    const JobStream &job(unsigned index) const { return jobs_.at(index); }

    /// Replay workload for job @p index. The TraceFile must outlive it.
    std::unique_ptr<Workload> make_replayer(unsigned index) const;

  private:
    std::vector<JobStream> jobs_;
};

/**
 * The four calls the perfbench scenario program makes: enabled() is
 * false, replay() is make_workload() and clear() does nothing, since
 * every job runs its own generator. Keep all four out of line: an inline
 * enabled() lets the compiler fold a branch of that program and recompile
 * its host-speed probe, which moves every host time the benchmark
 * rescales by it.
 */
class StreamCache {
  public:
    static StreamCache &instance();

    /// Always false.
    static bool enabled();

    /// make_workload(name, options).
    std::unique_ptr<Workload> replay(const std::string &name,
                                     const WorkloadOptions &options);

    /// Does nothing: nothing is cached.
    void clear();
};

}  // namespace ptm::workload
