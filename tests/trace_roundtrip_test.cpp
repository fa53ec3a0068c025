/**
 * @file
 * Trace frontend tests: .ptt encode/decode round-trips, record→replay
 * determinism for every catalog workload, and rejection of malformed
 * traces as SimErrors.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/experiment.hpp"
#include "workload/catalog.hpp"
#include "workload/trace.hpp"

namespace ptm::workload {
namespace {

/// Context that logs calls and hands out deterministic bases.
class LoggingContext final : public WorkloadContext {
  public:
    Addr
    mmap(Addr bytes) override
    {
        log.push_back("mmap:" + std::to_string(bytes));
        Addr base = next_base_;
        next_base_ += ((bytes + 0xfff) & ~0xfffULL);
        return base;
    }
    void
    munmap(Addr base) override
    {
        log.push_back("munmap:" + std::to_string(base));
    }
    void
    free_page(Addr gva) override
    {
        log.push_back("free:" + std::to_string(gva));
    }

    std::vector<std::string> log;

  private:
    Addr next_base_ = 0x7000'0000;
};

TEST(PttCodec, OpsRoundTripThroughZigzagDeltas)
{
    StreamEncoder enc;
    enc.setup_end();
    // Forward jumps, backward jumps, repeats — deltas of both signs.
    const MemOp ops[] = {{0x1000, false}, {0x1040, true},  {0x0800, false},
                         {0x0800, true},  {0xffff'0000, false}};
    for (const MemOp &op : ops)
        enc.op(op);
    enc.eos();

    DecodeState state;
    LoggingContext ctx;
    decode_setup(enc.bytes().data(), enc.bytes().size(), state, ctx);
    MemOp out[8];
    unsigned n = decode_ops(enc.bytes().data(), enc.bytes().size(), state,
                            ctx, out, 8);
    ASSERT_EQ(n, 5u);
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_EQ(out[i].gva, ops[i].gva) << i;
        EXPECT_EQ(out[i].write, ops[i].write) << i;
    }
    EXPECT_EQ(decode_ops(enc.bytes().data(), enc.bytes().size(), state,
                         ctx, out, 8),
              0u);
    EXPECT_TRUE(state.finished);
}

TEST(PttCodec, InteractionsApplyOnlyAtBatchHead)
{
    StreamEncoder enc;
    enc.mmap(0x2000, 0x7000'0000);
    enc.setup_end();
    enc.op({0x7000'0000, true});
    enc.op({0x7000'0040, false});
    enc.free_page(0x7000'0000);
    enc.op({0x7000'1000, true});
    enc.eos();

    DecodeState state;
    LoggingContext ctx;
    decode_setup(enc.bytes().data(), enc.bytes().size(), state, ctx);
    ASSERT_EQ(ctx.log.size(), 1u);
    EXPECT_EQ(ctx.log[0], "mmap:8192");

    MemOp out[8];
    // The free_page after op 2 must END the batch, not be applied mid-way.
    unsigned n = decode_ops(enc.bytes().data(), enc.bytes().size(), state,
                            ctx, out, 8);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(ctx.log.size(), 1u);
    // Next call applies it before producing the third op.
    n = decode_ops(enc.bytes().data(), enc.bytes().size(), state, ctx, out,
                   8);
    EXPECT_EQ(n, 1u);
    ASSERT_EQ(ctx.log.size(), 2u);
    EXPECT_EQ(ctx.log[1], "free:1879048192");
    EXPECT_EQ(out[0].gva, 0x7000'1000u);
}

TEST(PttCodec, InitEndOnBatchBoundaryIsConsumedEagerly)
{
    StreamEncoder enc;
    enc.setup_end();
    enc.op({0x1000, false});
    enc.init_end();
    enc.op({0x2000, false});
    enc.eos();

    DecodeState state;
    LoggingContext ctx;
    decode_setup(enc.bytes().data(), enc.bytes().size(), state, ctx);
    EXPECT_TRUE(state.in_init);
    MemOp out[1];
    // Batch ends exactly at the op that completed init: the marker right
    // past it must still flip the flag before the caller looks.
    ASSERT_EQ(decode_ops(enc.bytes().data(), enc.bytes().size(), state,
                         ctx, out, 1),
              1u);
    EXPECT_FALSE(state.in_init);
}

TEST(RecordingWorkloadTest, StreamMatchesSerialGeneratorExactly)
{
    WorkloadOptions options;
    options.scale = 0.02;
    options.seed = 5;
    options.total_ops = 2'000;

    // Serial reference run.
    LoggingContext ref_ctx;
    auto ref = make_workload("mcf", options);
    ref->setup(ref_ctx);
    std::vector<MemOp> ref_ops;
    while (auto op = ref->next(ref_ctx))
        ref_ops.push_back(*op);

    // Recorded run, then decode.
    LoggingContext rec_ctx;
    RecordingWorkload rec(make_workload("mcf", options));
    rec.setup(rec_ctx);
    while (rec.next(rec_ctx)) {
    }

    DecodeState state;
    LoggingContext replay_ctx;
    const auto &bytes = rec.encoder().bytes();
    decode_setup(bytes.data(), bytes.size(), state, replay_ctx);
    std::vector<MemOp> replay_ops;
    MemOp buf[64];
    unsigned n;
    while ((n = decode_ops(bytes.data(), bytes.size(), state, replay_ctx,
                           buf, 64)) != 0) {
        replay_ops.insert(replay_ops.end(), buf, buf + n);
    }
    EXPECT_TRUE(state.finished);

    ASSERT_EQ(replay_ops.size(), ref_ops.size());
    for (std::size_t i = 0; i < ref_ops.size(); ++i) {
        ASSERT_EQ(replay_ops[i].gva, ref_ops[i].gva) << "op " << i;
        ASSERT_EQ(replay_ops[i].write, ref_ops[i].write) << "op " << i;
    }
    EXPECT_EQ(replay_ctx.log, ref_ctx.log);
}

}  // namespace
}  // namespace ptm::workload

namespace ptm::sim {
namespace {

ScenarioConfig
tiny_config(const std::string &victim)
{
    // 0.05 is the smallest scale every catalog benchmark tolerates (gcc
    // overruns its region below that — a generator quirk predating the
    // trace frontend).
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim(victim)
                                .with_scale(0.05)
                                .with_measure_ops(4'000)
                                .with_seed(13);
    config.platform.guest_frames = 16 * 1024;
    config.platform.host_frames = 24 * 1024;
    return config;
}

/// Full simulated-state comparison (metrics + all stats + scalars).
void
expect_same_result(const ScenarioResult &a, const ScenarioResult &b,
                   const std::string &label)
{
    EXPECT_EQ(a.victim_cycles, b.victim_cycles) << label;
    EXPECT_EQ(a.victim_ops, b.victim_ops) << label;
    EXPECT_EQ(a.victim_rss_pages, b.victim_rss_pages) << label;
    EXPECT_EQ(a.total_ops, b.total_ops) << label;
    const auto &am = a.metrics.values();
    const auto &bm = b.metrics.values();
    ASSERT_EQ(am.size(), bm.size()) << label;
    for (const auto &[name, value] : am) {
        auto it = bm.find(name);
        ASSERT_NE(it, bm.end()) << label << ": " << name;
        EXPECT_EQ(value, it->second) << label << ": " << name;
    }
    ASSERT_EQ(a.stats.size(), b.stats.size()) << label;
    for (std::size_t i = 0; i < a.stats.entries().size(); ++i) {
        const auto &ea = a.stats.entries()[i];
        const auto &eb = b.stats.entries()[i];
        ASSERT_EQ(ea.path, eb.path) << label;
        if (ea.is_histogram) {
            EXPECT_EQ(ea.histogram.count, eb.histogram.count)
                << label << ": " << ea.path;
            EXPECT_EQ(ea.histogram.sum, eb.histogram.sum)
                << label << ": " << ea.path;
        } else {
            EXPECT_EQ(ea.value, eb.value) << label << ": " << ea.path;
        }
    }
}

std::string
temp_trace_path(const std::string &tag)
{
    return "trace_roundtrip_" + tag + ".ptt";
}

TEST(TraceRoundtrip, EveryCatalogBenchmarkReplaysIdentically)
{
    for (const std::string &victim : workload::benchmark_names()) {
        SCOPED_TRACE(victim);
        const std::string path = temp_trace_path(victim);
        ScenarioConfig config = tiny_config(victim);
        ScenarioResult recorded =
            run_scenario(ScenarioConfig(config).with_trace_record(path));
        ScenarioResult replayed =
            run_scenario(ScenarioConfig(config).with_trace_replay(path));
        expect_same_result(recorded, replayed, victim);
        std::remove(path.c_str());
    }
}

TEST(TraceRoundtrip, RecordingDoesNotPerturbTheRun)
{
    const std::string path = temp_trace_path("perturb");
    ScenarioConfig config = tiny_config("pagerank");
    ScenarioResult plain = run_scenario(config);
    ScenarioResult recorded =
        run_scenario(ScenarioConfig(config).with_trace_record(path));
    expect_same_result(plain, recorded, "record-wrapper");
    std::remove(path.c_str());
}

TEST(TraceRoundtrip, MultiJobTraceReplaysAcrossPolicyLegs)
{
    // One recorded trace must drive both the buddy and the PTEMagnet leg:
    // op streams are policy-independent by construction, and this is the
    // property that lets sweeps share a single trace.
    const std::string path = temp_trace_path("multijob");
    ScenarioConfig config = tiny_config("pagerank")
                                .with_corunner("stress-ng", 2)
                                .with_warmup_ops(2'000);
    ScenarioResult recorded =
        run_scenario(ScenarioConfig(config).with_trace_record(path));
    ScenarioResult replayed =
        run_scenario(ScenarioConfig(config).with_trace_replay(path));
    expect_same_result(recorded, replayed, "buddy-leg");

    ScenarioResult magnet_direct =
        run_scenario(ScenarioConfig(config).with_ptemagnet());
    ScenarioResult magnet_replayed = run_scenario(ScenarioConfig(config)
                                                      .with_ptemagnet()
                                                      .with_trace_replay(
                                                          path));
    expect_same_result(magnet_direct, magnet_replayed, "magnet-leg");
    std::remove(path.c_str());
}

TEST(TraceRoundtrip, ReplayRejectsJobCountMismatch)
{
    const std::string path = temp_trace_path("mismatch");
    ScenarioConfig config = tiny_config("pagerank");
    run_scenario(ScenarioConfig(config).with_trace_record(path));
    EXPECT_THROW(run_scenario(ScenarioConfig(config)
                                  .with_corunner("stress-ng", 2)
                                  .with_trace_replay(path)),
                 SimError);
    std::remove(path.c_str());
}

TEST(TraceRoundtrip, LoadRejectsGarbage)
{
    const std::string path = temp_trace_path("garbage");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace", f);
    std::fclose(f);
    EXPECT_THROW(workload::TraceFile::load(path), SimError);
    std::remove(path.c_str());
    EXPECT_THROW(workload::TraceFile::load("does_not_exist.ptt"),
                 SimError);

    // A header length near 2^64 must not wrap the bounds check.
    std::vector<std::uint8_t> header(
        workload::ptt::kMagic,
        workload::ptt::kMagic + sizeof(workload::ptt::kMagic));
    header.push_back(1);                           // one job
    workload::ptt::put_varint(header, ~0ULL - 5);  // its name length
    header.resize(header.size() + 32, 'x');
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(header.data(), 1, header.size(), f);
    std::fclose(f);
    EXPECT_THROW(workload::TraceFile::load(path), SimError);
    std::remove(path.c_str());

    // A well-formed file whose stream is corrupt loads, then fails the
    // run that decodes it. The stream is the file's last len bytes.
    const std::string corrupt = temp_trace_path("corrupt");
    ScenarioConfig config = tiny_config("pagerank");
    run_scenario(ScenarioConfig(config).with_trace_record(corrupt));
    const std::size_t len =
        workload::TraceFile::load(corrupt).job(0).bytes.size();
    f = std::fopen(corrupt.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -static_cast<long>(len), SEEK_END), 0);
    std::fputc(0xff, f);  // no such opcode
    std::fclose(f);
    EXPECT_THROW(
        run_scenario(ScenarioConfig(config).with_trace_replay(corrupt)),
        SimError);
    std::remove(corrupt.c_str());
}

}  // namespace
}  // namespace ptm::sim
