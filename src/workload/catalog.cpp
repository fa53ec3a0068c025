#include "workload/catalog.hpp"

#include <functional>
#include <map>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "workload/serving.hpp"

namespace ptm::workload {

namespace {

constexpr Addr
mib(double n)
{
    return static_cast<Addr>(n * 1024.0 * 1024.0);
}

Addr
scaled(double megabytes, double scale)
{
    Addr bytes = mib(megabytes * scale);
    return bytes < kPageSize ? kPageSize : page_ceil(bytes);
}

/// Constructor of one named generator; @p name seeds its RNG.
using Ctor = std::function<std::unique_ptr<Workload>(
    const std::string &name, const WorkloadOptions &options)>;

/// A catalog preset: a SyntheticWorkload shaped by @p build.
Ctor
preset(std::function<void(SyntheticWorkload &, double scale)> build)
{
    return [build](const std::string &name, const WorkloadOptions &options) {
        auto w = std::make_unique<SyntheticWorkload>(
            name, detail::mix_seed(name, options.seed));
        build(*w, options.scale);
        if (options.total_ops != 0)
            w->set_total_ops(options.total_ops);
        return w;
    };
}

/// A serving-tier generator, which reads its own knobs.
template <typename W>
std::unique_ptr<Workload>
serving(const std::string &name, const WorkloadOptions &options)
{
    return std::make_unique<W>(name, options);
}

/**
 * GPOP-style graph kernels (Table 3, 16 GB Twitter-scaled dataset):
 * partition-centric processing — sequential scans of the edge array plus
 * clustered accesses to per-vertex state, with per-kernel mixes.
 */
void
build_graph(SyntheticWorkload &w, double scale, double vertex_mb,
            double edge_mb, unsigned partition_pages,
            double sweep_weight, double random_weight,
            double write_fraction)
{
    // GPOP processes vertices partition by partition: per-vertex state is
    // visited in ascending page order within a partition (page_sweep),
    // the edge array is streamed (sequential), and a residue of accesses
    // crosses partitions irregularly (random).
    unsigned vertices = w.add_region(scaled(vertex_mb, scale));
    unsigned edges = w.add_region(scaled(edge_mb, scale));
    w.add_pattern(vertices, page_sweep(partition_pages, 1, write_fraction),
                  sweep_weight);
    w.add_pattern(edges, sequential(kCacheLineSize, 0.0), 0.20);
    if (random_weight > 0.0)
        w.add_pattern(vertices, random_uniform(write_fraction),
                      random_weight);
}

/// Every workload by name: the paper's presets and the serving tier.
const std::map<std::string, Ctor> &
workloads()
{
    static const std::map<std::string, Ctor> table = {
        // ---- benchmarks (victims) -------------------------------------
        {"pagerank",
         preset([](SyntheticWorkload &w, double s) {
             build_graph(w, s, /*vertex_mb=*/28, /*edge_mb=*/56,
                         /*partition_pages=*/64, /*sweep_weight=*/0.55,
                         /*random_weight=*/0.20, /*write_fraction=*/0.30);
         })},
        {"cc",
         preset([](SyntheticWorkload &w, double s) {
             build_graph(w, s, 24, 48, 64, 0.34, 0.38, 0.45);
         })},
        {"bfs",
         preset([](SyntheticWorkload &w, double s) {
             build_graph(w, s, 24, 48, 32, 0.26, 0.46, 0.25);
         })},
        {"nibble",
         preset([](SyntheticWorkload &w, double s) {
             build_graph(w, s, 32, 48, 128, 0.34, 0.36, 0.35);
         })},
        {"mcf",
         preset([](SyntheticWorkload &w, double s) {
             // Network simplex: pointer chasing over arcs/nodes; sorted
             // arc scans give page-level locality, the rest is irregular.
             unsigned arena = w.add_region(scaled(96, s));
             w.add_pattern(arena, page_sweep(24, 1, 0.20), 0.62);
             w.add_pattern(arena, random_uniform(0.15), 0.38);
         })},
        {"gcc",
         preset([](SyntheticWorkload &w, double s) {
             // Compiler: modest footprint, strong cache locality ->
             // little TLB pressure; Figure 6 shows only a small gain.
             unsigned heap = w.add_region(scaled(5, s));
             w.add_pattern(heap, clustered(128 * 1024, 160, 0.35), 0.95);
             w.add_pattern(heap, page_sweep(8, 4, 0.20), 0.03);
             w.add_pattern(heap, random_uniform(0.10), 0.02);
         })},
        {"omnetpp",
         preset([](SyntheticWorkload &w, double s) {
             // Discrete-event simulation: heap-object churn locality.
             unsigned heap = w.add_region(scaled(44, s));
             w.add_pattern(heap, clustered(64 * 1024, 16, 0.40), 0.35);
             w.add_pattern(heap, page_sweep(16, 3, 0.30), 0.45);
             w.add_pattern(heap, random_uniform(0.25), 0.20);
         })},
        {"xz",
         preset([](SyntheticWorkload &w, double s) {
             // LZMA: streaming input plus dictionary-window matches —
             // the strongest page-level spatial locality of the set (and
             // the paper's best case, +9%).
             unsigned window = w.add_region(scaled(64, s));
             unsigned stream = w.add_region(scaled(24, s));
             w.add_pattern(window, page_sweep(256, 1, 0.15), 0.85);
             w.add_pattern(stream, sequential(kCacheLineSize, 0.10), 0.08);
             w.add_pattern(window, random_uniform(0.05), 0.07);
         })},
        // ---- low-TLB-pressure SPEC'17 Int class (§6.1: PTEMagnet must
        // ---- gain 0-1% and never hurt these) ----------------------------
        {"perlbench",
         preset([](SyntheticWorkload &w, double s) {
             // Interpreter: hot opcode dispatch + small heap.
             unsigned heap = w.add_region(scaled(4, s));
             w.add_pattern(heap, clustered(64 * 1024, 128, 0.30), 0.90);
             w.add_pattern(heap, random_uniform(0.10), 0.10);
         })},
        {"x264",
         preset([](SyntheticWorkload &w, double s) {
             // Video encode: streaming frames, strong line locality.
             unsigned frames = w.add_region(scaled(6, s));
             w.add_pattern(frames, sequential(kCacheLineSize, 0.30), 0.85);
             w.add_pattern(frames, clustered(128 * 1024, 96, 0.20), 0.15);
         })},
        {"deepsjeng",
         preset([](SyntheticWorkload &w, double s) {
             // Chess search: transposition table in a few MB.
             unsigned tt = w.add_region(scaled(5, s));
             w.add_pattern(tt, clustered(256 * 1024, 160, 0.25), 0.95);
             w.add_pattern(tt, random_uniform(0.15), 0.05);
         })},
        {"leela",
         preset([](SyntheticWorkload &w, double s) {
             // Go engine: tree nodes with strong reuse.
             unsigned tree = w.add_region(scaled(3, s));
             w.add_pattern(tree, clustered(64 * 1024, 192, 0.35), 1.0);
         })},
        {"exchange2",
         preset([](SyntheticWorkload &w, double s) {
             // Puzzle generator: tiny arrays, essentially cache-resident.
             unsigned arrays = w.add_region(scaled(1, s));
             w.add_pattern(arrays, sequential(kCacheLineSize, 0.40), 0.70);
             w.add_pattern(arrays, clustered(32 * 1024, 96, 0.30), 0.30);
         })},
        {"xalancbmk",
         preset([](SyntheticWorkload &w, double s) {
             // XML transform: DOM walk with pointer locality.
             unsigned dom = w.add_region(scaled(6, s));
             w.add_pattern(dom, clustered(128 * 1024, 112, 0.20), 0.85);
             w.add_pattern(dom, random_uniform(0.10), 0.15);
         })},
        // ---- co-runners ------------------------------------------------
        {"objdet",
         preset([](SyntheticWorkload &w, double s) {
             // One worker thread of MLPerf SSD-MobileNet inference (the
             // paper runs it 8-threaded): weight streaming between
             // per-image buffer allocations — the highest page-fault
             // rate of the co-runner set (§6.1).
             unsigned weights = w.add_region(scaled(8, s));
             w.add_pattern(weights, sequential(kCacheLineSize, 0.0), 1.0);
             w.set_line_repeats(1);  // streaming: no word-level reuse
             w.set_churn({.chunk_bytes = scaled(2, s),
                          .ops_between_churn = 500,
                          .live_chunks = 3});
         })},
        {"stress-ng",
         preset([](SyntheticWorkload &w, double s) {
             // One stress-ng worker: continuously allocate, touch, free.
             // The paper runs 12 of these; the sim spawns one process
             // per worker.
             w.set_init_touch(false);
             w.set_churn({.chunk_bytes = scaled(1, s),
                          .ops_between_churn = 0,
                          .live_chunks = 12});
         })},
        {"chameleon",
         preset([](SyntheticWorkload &w, double s) {
             // HTML table rendering: string building over small buffers.
             unsigned heap = w.add_region(scaled(6, s));
             w.add_pattern(heap, sequential(kCacheLineSize, 0.50), 0.60);
             w.add_pattern(heap, clustered(64 * 1024, 24, 0.30), 0.40);
             w.set_churn({.chunk_bytes = scaled(0.25, s),
                          .ops_between_churn = 3000,
                          .live_chunks = 8});
         })},
        {"pyaes",
         preset([](SyntheticWorkload &w, double s) {
             // AES block cipher over text: tiny working set, CPU bound.
             unsigned buf = w.add_region(scaled(1, s));
             w.add_pattern(buf, sequential(kCacheLineSize, 0.40), 1.0);
         })},
        {"json_serdes",
         preset([](SyntheticWorkload &w, double s) {
             // JSON (de)serialization: build/scan buffers, free per doc.
             unsigned heap = w.add_region(scaled(10, s));
             w.add_pattern(heap, sequential(kCacheLineSize, 0.35), 0.70);
             w.add_pattern(heap, random_uniform(0.10), 0.30);
             w.set_churn({.chunk_bytes = scaled(0.5, s),
                          .ops_between_churn = 4000,
                          .live_chunks = 6});
         })},
        {"rnn_serving",
         preset([](SyntheticWorkload &w, double s) {
             // RNN name generation (PyTorch): weight reads + small
             // activation buffers per request.
             unsigned weights = w.add_region(scaled(24, s));
             w.add_pattern(weights, sequential(kCacheLineSize, 0.0), 0.80);
             w.add_pattern(weights, clustered(256 * 1024, 32, 0.0), 0.20);
             w.set_churn({.chunk_bytes = scaled(0.25, s),
                          .ops_between_churn = 5000,
                          .live_chunks = 4});
         })},
        // ---- microbenchmarks -------------------------------------------
        {"alloc_sweep",
         preset([](SyntheticWorkload &w, double s) {
             // §6.4: allocate a large array and touch each page once to
             // invoke the physical allocator; execution is dominated by
             // the fault path. (Paper: 60 GB; scaled.)
             unsigned array = w.add_region(scaled(192, s));
             w.add_pattern(array, sequential(kPageSize, 1.0), 1.0);
             w.set_total_ops(1);  // the init sweep is the benchmark
         })},
        // ---- cloud-serving tier (serving.hpp) ---------------------------
        {"fork_storm", serving<ForkStormWorkload>},
        {"kv_tier", serving<KvTierWorkload>},
        {"ws_estimate", serving<WsEstimateWorkload>},
    };
    return table;
}

/// The one place an unknown workload name is reported.
const Ctor &
ctor_of(const std::string &name)
{
    auto it = workloads().find(name);
    if (it == workloads().end()) {
        std::string known;
        for (const auto &[row, ctor] : workloads())
            known += (known.empty() ? "" : ", ") + row;
        ptm_throw("unknown workload '%s' (known: %s)", name.c_str(),
                  known.c_str());
    }
    return it->second;
}

}  // namespace

void
require_workload(const std::string &name)
{
    ctor_of(name);
}

std::unique_ptr<Workload>
make_workload(const std::string &name, const WorkloadOptions &options)
{
    return ctor_of(name)(name, options);
}

namespace detail {

std::uint64_t
mix_seed(const std::string &name, std::uint64_t seed)
{
    std::uint64_t h = std::hash<std::string>{}(name);
    std::uint64_t s = seed + 0x9e3779b97f4a7c15ULL;
    return h ^ splitmix64(s);
}

}  // namespace detail

const std::vector<std::string> &
benchmark_names()
{
    static const std::vector<std::string> names = {
        "cc", "bfs", "nibble", "pagerank", "gcc", "mcf", "omnetpp", "xz"};
    return names;
}

const std::vector<std::string> &
low_pressure_names()
{
    static const std::vector<std::string> names = {
        "perlbench", "x264", "deepsjeng", "leela", "exchange2",
        "xalancbmk"};
    return names;
}

const std::vector<std::string> &
corunner_names()
{
    static const std::vector<std::string> names = {
        "objdet",      "chameleon", "pyaes", "json_serdes",
        "rnn_serving", "gcc",       "xz"};
    return names;
}

const std::map<std::string, std::vector<CorunnerSpec>> &
corunner_presets()
{
    static const std::map<std::string, std::vector<CorunnerSpec>> presets =
        {
            {"none", {}},
            {"objdet8", {{"objdet", 8}}},
            {"combo",
             {{"objdet", 2},
              {"chameleon", 1},
              {"pyaes", 1},
              {"json_serdes", 1},
              {"rnn_serving", 1},
              {"gcc", 1},
              {"xz", 1}}},
            {"stressng12", {{"stress-ng", 12}}},
        };
    return presets;
}

const std::vector<CorunnerSpec> &
corunner_preset(const std::string &name)
{
    const auto &presets = corunner_presets();
    auto it = presets.find(name);
    if (it == presets.end())
        ptm_fatal("unknown co-runner preset '%s'", name.c_str());
    return it->second;
}

}  // namespace ptm::workload
