#include "workload/trace.hpp"

#include <cstdio>
#include <cstring>

#include "common/error.hpp"
#include "common/log.hpp"
#include "workload/catalog.hpp"

namespace ptm::workload {

namespace ptt {

void
put_varint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

namespace {

std::uint64_t
get_varint(const std::uint8_t *data, std::size_t len, std::size_t &offset)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
        if (offset >= len)
            ptm_throw("trace stream truncated mid-varint");
        std::uint8_t byte = data[offset++];
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return v;
        shift += 7;
        if (shift >= 64)
            ptm_throw("trace varint overflows 64 bits");
    }
}

}  // namespace
}  // namespace ptt

// ---- StreamEncoder -----------------------------------------------------

void
StreamEncoder::op(const MemOp &op)
{
    bytes_.push_back(op.write ? ptt::kOpWrite : ptt::kOpRead);
    ptt::put_varint(bytes_,
                    ptt::zigzag(static_cast<std::int64_t>(op.gva) -
                                static_cast<std::int64_t>(prev_gva_)));
    prev_gva_ = op.gva;
}

void
StreamEncoder::mmap(Addr bytes, Addr base)
{
    bytes_.push_back(ptt::kMmap);
    ptt::put_varint(bytes_, bytes);
    ptt::put_varint(bytes_, base);
}

void
StreamEncoder::munmap(Addr base)
{
    bytes_.push_back(ptt::kMunmap);
    ptt::put_varint(bytes_, base);
}

void
StreamEncoder::free_page(Addr gva)
{
    bytes_.push_back(ptt::kFreePage);
    ptt::put_varint(bytes_, gva);
}

void
StreamEncoder::setup_end()
{
    bytes_.push_back(ptt::kSetupEnd);
}

void
StreamEncoder::init_end()
{
    bytes_.push_back(ptt::kInitEnd);
}

void
StreamEncoder::eos()
{
    bytes_.push_back(ptt::kEos);
}

// ---- decoding ----------------------------------------------------------

namespace {

/// Apply one interaction event (opcode already inspected, not consumed).
void
apply_interaction(const std::uint8_t *data, std::size_t len,
                  std::size_t &offset, WorkloadContext &ctx)
{
    std::uint8_t opcode = data[offset++];
    switch (opcode) {
      case ptt::kMmap: {
        Addr bytes = ptt::get_varint(data, len, offset);
        Addr recorded_base = ptt::get_varint(data, len, offset);
        Addr base = ctx.mmap(bytes);
        // Virtual address assignment is deterministic (eager cursor
        // allocation); a mismatch means the replay context diverged from
        // the recorded one and every later gva would be wrong.
        if (base != recorded_base) {
            ptm_throw("trace replay mmap divergence: recorded base %llx, "
                      "got %llx",
                      static_cast<unsigned long long>(recorded_base),
                      static_cast<unsigned long long>(base));
        }
        return;
      }
      case ptt::kMunmap:
        ctx.munmap(ptt::get_varint(data, len, offset));
        return;
      case ptt::kFreePage:
        ctx.free_page(ptt::get_varint(data, len, offset));
        return;
      default:
        ptm_throw("trace stream: unexpected opcode %u as interaction",
                  opcode);
    }
}

}  // namespace

void
decode_setup(const std::uint8_t *data, std::size_t len, DecodeState &state,
             WorkloadContext &ctx)
{
    while (state.offset < len) {
        std::uint8_t opcode = data[state.offset];
        if (opcode == ptt::kSetupEnd) {
            ++state.offset;
            // A workload that starts outside its init phase records the
            // boundary immediately after setup.
            if (state.offset < len && data[state.offset] == ptt::kInitEnd) {
                ++state.offset;
                state.in_init = false;
            }
            return;
        }
        apply_interaction(data, len, state.offset, ctx);
    }
    ptm_throw("trace stream ends before its setup section does");
}

unsigned
decode_ops(const std::uint8_t *data, std::size_t len, DecodeState &state,
           WorkloadContext &ctx, MemOp *out, unsigned max)
{
    unsigned produced = 0;
    while (produced < max && !state.finished && state.offset < len) {
        std::uint8_t opcode = data[state.offset];
        switch (opcode) {
          case ptt::kOpRead:
          case ptt::kOpWrite: {
            ++state.offset;
            std::uint64_t gva =
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(state.prev_gva) +
                    ptt::unzigzag(
                        ptt::get_varint(data, len, state.offset)));
            state.prev_gva = gva;
            out[produced].gva = gva;
            out[produced].write = (opcode & 0x01) != 0;
            ++produced;
            break;
          }
          case ptt::kMmap:
          case ptt::kMunmap:
          case ptt::kFreePage:
            // An interaction after this call's first op ends the call;
            // the next call applies it before its first op.
            if (produced > 0)
                return produced;
            apply_interaction(data, len, state.offset, ctx);
            break;
          case ptt::kInitEnd:
            // Pure flag flip — consumed the moment it is reachable, so
            // in_init_phase() observes the boundary at the same op
            // position as the recorded run.
            ++state.offset;
            state.in_init = false;
            break;
          case ptt::kEos:
            ++state.offset;
            state.finished = true;
            break;
          default:
            ptm_throw("trace stream: unknown opcode %u", opcode);
        }
    }
    // A kInitEnd sitting right past the last op of a full call must be
    // taken now: the recorded run flipped the phase during the call that
    // produced that op, and the scheduler may look before the next call.
    if (!state.finished && state.offset < len &&
        data[state.offset] == ptt::kInitEnd) {
        ++state.offset;
        state.in_init = false;
    }
    return produced;
}

// ---- RecordingWorkload -------------------------------------------------

/// WorkloadContext proxy that encodes every interaction as it happens,
/// preserving stream order relative to ops.
class RecordingWorkload::RecordingContext final : public WorkloadContext {
  public:
    RecordingContext(WorkloadContext &real, StreamEncoder &enc)
        : real_(real), enc_(enc)
    {
    }

    Addr
    mmap(Addr bytes) override
    {
        Addr base = real_.mmap(bytes);
        enc_.mmap(bytes, base);
        return base;
    }

    void
    munmap(Addr base) override
    {
        enc_.munmap(base);
        real_.munmap(base);
    }

    void
    free_page(Addr gva) override
    {
        enc_.free_page(gva);
        real_.free_page(gva);
    }

  private:
    WorkloadContext &real_;
    StreamEncoder &enc_;
};

RecordingWorkload::RecordingWorkload(std::unique_ptr<Workload> inner)
    : inner_(std::move(inner))
{
    if (!inner_)
        ptm_fatal("RecordingWorkload needs a workload to wrap");
}

RecordingWorkload::~RecordingWorkload() = default;

void
RecordingWorkload::setup(WorkloadContext &ctx)
{
    RecordingContext rc(ctx, enc_);
    inner_->setup(rc);
    enc_.setup_end();
    note_init_phase();
}

void
RecordingWorkload::note_init_phase()
{
    if (!init_end_recorded_ && !inner_->in_init_phase()) {
        enc_.init_end();
        init_end_recorded_ = true;
    }
}

std::optional<MemOp>
RecordingWorkload::next(WorkloadContext &ctx)
{
    RecordingContext rc(ctx, enc_);
    std::optional<MemOp> op = inner_->next(rc);
    if (!op) {
        if (!eos_recorded_) {
            enc_.eos();
            eos_recorded_ = true;
        }
        return std::nullopt;
    }
    enc_.op(*op);
    note_init_phase();
    return op;
}

// ---- TraceFile ---------------------------------------------------------

TraceFile
TraceFile::load(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        ptm_throw("cannot open trace file %s", path.c_str());
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> blob(size > 0 ? static_cast<std::size_t>(size)
                                            : 0);
    if (!blob.empty() &&
        std::fread(blob.data(), 1, blob.size(), f) != blob.size()) {
        std::fclose(f);
        ptm_throw("cannot read trace file %s", path.c_str());
    }
    std::fclose(f);

    if (blob.size() < sizeof(ptt::kMagic) ||
        std::memcmp(blob.data(), ptt::kMagic, sizeof(ptt::kMagic)) != 0)
        ptm_throw("%s is not a .ptt trace (bad magic)", path.c_str());

    std::size_t offset = sizeof(ptt::kMagic);
    TraceFile trace;
    std::uint64_t jobs = ptt::get_varint(blob.data(), blob.size(), offset);
    std::vector<std::uint64_t> lengths;
    for (std::uint64_t j = 0; j < jobs; ++j) {
        std::uint64_t name_len =
            ptt::get_varint(blob.data(), blob.size(), offset);
        // Lengths are checked against the bytes left: offset + length
        // would wrap for a length near 2^64.
        if (name_len > blob.size() - offset)
            ptm_throw("trace %s: truncated job name", path.c_str());
        JobStream stream;
        stream.name.assign(
            reinterpret_cast<const char *>(blob.data() + offset), name_len);
        offset += name_len;
        lengths.push_back(
            ptt::get_varint(blob.data(), blob.size(), offset));
        trace.jobs_.push_back(std::move(stream));
    }
    for (std::uint64_t j = 0; j < jobs; ++j) {
        if (lengths[j] > blob.size() - offset)
            ptm_throw("trace %s: truncated stream for job %llu",
                      path.c_str(), static_cast<unsigned long long>(j));
        trace.jobs_[j].bytes.assign(blob.begin() + offset,
                                    blob.begin() + offset + lengths[j]);
        offset += lengths[j];
    }
    return trace;
}

void
TraceFile::write(const std::string &path,
                 const std::vector<const RecordingWorkload *> &jobs)
{
    std::vector<std::uint8_t> blob;
    blob.insert(blob.end(), ptt::kMagic, ptt::kMagic + sizeof(ptt::kMagic));
    ptt::put_varint(blob, jobs.size());
    for (const RecordingWorkload *job : jobs) {
        const std::string name = job->name();
        ptt::put_varint(blob, name.size());
        blob.insert(blob.end(), name.begin(), name.end());
        ptt::put_varint(blob, job->encoder().bytes().size());
    }
    for (const RecordingWorkload *job : jobs) {
        const std::vector<std::uint8_t> &bytes = job->encoder().bytes();
        blob.insert(blob.end(), bytes.begin(), bytes.end());
    }

    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        ptm_throw("cannot create trace file %s", tmp.c_str());
    if (std::fwrite(blob.data(), 1, blob.size(), f) != blob.size()) {
        std::fclose(f);
        std::remove(tmp.c_str());
        ptm_throw("cannot write trace file %s", tmp.c_str());
    }
    std::fclose(f);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        ptm_throw("cannot move trace file into place at %s", path.c_str());
    }
}

namespace {

/// Replays one immutable TraceFile job stream.
class TraceReplayWorkload final : public Workload {
  public:
    explicit TraceReplayWorkload(const TraceFile::JobStream *stream)
        : stream_(stream)
    {
    }

    void
    setup(WorkloadContext &ctx) override
    {
        decode_setup(stream_->bytes.data(), stream_->bytes.size(), state_,
                     ctx);
    }

    std::optional<MemOp>
    next(WorkloadContext &ctx) override
    {
        MemOp op;
        if (decode_ops(stream_->bytes.data(), stream_->bytes.size(), state_,
                       ctx, &op, 1) == 0) {
            // A stream that ran dry without an explicit EOS was recorded
            // from an infinite co-runner; the replayed job simply ends
            // where the recording did.
            state_.finished = true;
            return std::nullopt;
        }
        return op;
    }

    bool in_init_phase() const override { return state_.in_init; }
    std::string name() const override { return stream_->name; }

  private:
    const TraceFile::JobStream *stream_;
    DecodeState state_;
};

}  // namespace

std::unique_ptr<Workload>
TraceFile::make_replayer(unsigned index) const
{
    return std::make_unique<TraceReplayWorkload>(&jobs_.at(index));
}

// ---- StreamCache -------------------------------------------------------

StreamCache &
StreamCache::instance()
{
    static StreamCache cache;
    return cache;
}

bool
StreamCache::enabled()
{
    return false;
}

std::unique_ptr<Workload>
StreamCache::replay(const std::string &name,
                    const WorkloadOptions &options)
{
    return make_workload(name, options);
}

void
StreamCache::clear()
{
}

}  // namespace ptm::workload
