/**
 * @file
 * Platform configuration: the simulated analogue of the paper's Table 2,
 * scaled down (see DESIGN.md §1). One struct gathers every knob so that
 * experiments and ablations can tweak a single value.
 */
#pragma once

#include <cstdint>
#include <string>

#include "cache/hierarchy.hpp"
#include "common/params.hpp"
#include "common/types.hpp"
#include "host/host_kernel.hpp"
#include "tlb/tlb.hpp"
#include "vm/guest_kernel.hpp"

namespace ptm::sim {

/// Everything fixed about the simulated machine + VM.
struct PlatformConfig {
    /// Guest-physical memory: 512 MiB (paper VM: 64 GB, scaled ~1:128).
    std::uint64_t guest_frames = 128 * 1024;
    /// Host-physical memory: 896 MiB.
    std::uint64_t host_frames = 224 * 1024;

    /// 16 KiB L1D and 64 KiB L2 (8-way), 256 KiB LLC (16-way).
    cache::HierarchyConfig hierarchy;
    /// 32-entry 4-way L1 TLB, 256-entry 8-way L2 TLB.
    tlb::TlbConfig tlb;

    vm::GuestCostModel guest_costs;
    host::HostCostModel host_costs;

    /// Fixed per-operation core cost (non-memory work).
    Cycles base_op_cycles = 2;
    /// Cost of an mmap() syscall (eager VA allocation is cheap).
    Cycles mmap_cycles = 900;
    /// Per-page cost of munmap teardown.
    Cycles munmap_page_cycles = 250;

    /// Round-robin scheduling quantum, in operations. Small values model
    /// the fine-grained page-fault interleaving of truly concurrent
    /// processes.
    unsigned slice_ops = 2;

    /// Read by nothing: the simulated machine draws no random numbers
    /// (workloads take ScenarioConfig::seed). Kept only because
    /// perfbench/scenarios.cpp assigns it.
    std::uint64_t seed = 12345;

    /// Translation structure for both the guest and host page tables,
    /// by pt::make_table name ("radix", "hashed", ...).
    std::string translation_table = "radix";
    /// Table-specific knobs (e.g. "initial_frames" for "hashed").
    PolicyParams table_params;
};

}  // namespace ptm::sim
