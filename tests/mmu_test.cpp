/**
 * @file
 * Tests for the nested (2D) page walker: translation correctness, fault
 * delegation, TLB/PWC/nested-TLB interplay, and the architectural
 * 24-access bound of §2.5.
 */
#include <gtest/gtest.h>

#include <set>

#include "cache/hierarchy.hpp"
#include "host/host_kernel.hpp"
#include "mmu/nested_walker.hpp"
#include "vm/guest_kernel.hpp"

namespace ptm::mmu {
namespace {

class WalkerTest : public ::testing::Test {
  protected:
    WalkerTest()
        : host_(4096), vm_(host_.create_vm()), guest_(4096),
          hierarchy_(tiny_hierarchy(), 1)
    {
    }

    static cache::HierarchyConfig
    tiny_hierarchy()
    {
        cache::HierarchyConfig config;
        config.l1 = {"L1D", 1024, 2};
        config.l2 = {"L2", 4096, 4};
        config.llc = {"LLC", 16384, 4};
        return config;
    }

    // FaultHook is a non-owning fn-pointer + context, so the fixture
    // provides static trampolines bound to itself (and, for guest
    // faults, to the process under test).
    static FaultOutcome
    host_fault(void *ctx, std::uint64_t gfn)
    {
        auto *self = static_cast<WalkerTest *>(ctx);
        return self->host_.handle_fault(self->vm_, gfn);
    }

    static FaultOutcome
    guest_fault(void *ctx, std::uint64_t gvpn)
    {
        auto *self = static_cast<WalkerTest *>(ctx);
        return self->guest_.handle_fault(*self->fault_proc_, gvpn);
    }

    NestedWalker
    make_walker(tlb::TlbConfig config = {})
    {
        return NestedWalker(
            0, config, &hierarchy_,
            HostContext{
                .page_table = &vm_.page_table(),
                .fault_handler = FaultHook(&WalkerTest::host_fault, this),
            });
    }

    GuestContext
    guest_context(vm::Process &proc)
    {
        fault_proc_ = &proc;
        return GuestContext{
            .page_table = &proc.page_table(),
            .fault_handler = FaultHook(&WalkerTest::guest_fault, this),
        };
    }

    host::HostKernel host_;
    host::VmInstance &vm_;
    vm::GuestKernel guest_;
    cache::MemoryHierarchy hierarchy_;
    vm::Process *fault_proc_ = nullptr;
};

TEST_F(WalkerTest, ColdTranslationFaultsAndResolves)
{
    NestedWalker walker = make_walker();
    vm::Process &proc = guest_.create_process("app");
    Addr gva = proc.vas().mmap(kPageSize);
    GuestContext ctx = guest_context(proc);

    TranslationResult result = walker.translate(ctx, gva);
    EXPECT_TRUE(result.faulted);
    EXPECT_FALSE(result.tlb_hit);
    EXPECT_GT(result.cycles, 0u);

    // End-to-end correctness: gva -> gfn (guest PT) -> hfn (host PT).
    auto gpte = proc.page_table().lookup(page_number(gva));
    ASSERT_TRUE(gpte);
    auto hpte = vm_.page_table().lookup(gpte->frame());
    ASSERT_TRUE(hpte);
    EXPECT_EQ(result.hfn, hpte->frame());
}

TEST_F(WalkerTest, SecondTranslationHitsL1Tlb)
{
    NestedWalker walker = make_walker();
    vm::Process &proc = guest_.create_process("app");
    Addr gva = proc.vas().mmap(kPageSize);
    GuestContext ctx = guest_context(proc);

    TranslationResult first = walker.translate(ctx, gva);
    TranslationResult second = walker.translate(ctx, gva);
    EXPECT_TRUE(second.tlb_hit);
    EXPECT_EQ(second.cycles, 0u);
    EXPECT_EQ(second.hfn, first.hfn);
    EXPECT_EQ(walker.stats().tlb_l1_hits.value(), 1u);
    EXPECT_EQ(walker.stats().guest_faults.value(), 1u);
}

TEST_F(WalkerTest, ArchitecturalAccessBound24)
{
    // §2.5: with no PWC and no nested TLB, a fully-warm-PT translation
    // issues exactly 4 gPT accesses and 5 host walks x 4 hPT accesses.
    tlb::TlbConfig config;
    config.pwc_enabled = false;
    config.nested_tlb_enabled = false;
    NestedWalker walker = make_walker(config);
    vm::Process &proc = guest_.create_process("app");
    Addr gva = proc.vas().mmap(kPageSize);
    GuestContext ctx = guest_context(proc);

    walker.translate(ctx, gva);  // faults in all mappings
    walker.flush_all();
    walker.reset_stats();

    TranslationResult result = walker.translate(ctx, gva);
    EXPECT_FALSE(result.faulted);
    EXPECT_EQ(walker.stats().guest_pt_accesses.value(), 4u);
    EXPECT_EQ(walker.stats().host_pt_accesses.value(), 20u);
    EXPECT_EQ(walker.stats().guest_pt_accesses.value() +
                  walker.stats().host_pt_accesses.value(),
              24u);
}

TEST_F(WalkerTest, NestedTlbShortensHostSide)
{
    tlb::TlbConfig config;
    config.pwc_enabled = false;
    NestedWalker walker = make_walker(config);
    vm::Process &proc = guest_.create_process("app");
    Addr gva = proc.vas().mmap(kPageSize);
    GuestContext ctx = guest_context(proc);

    walker.translate(ctx, gva);
    // Drop only the data TLB: nested TLB entries survive.
    walker.tlb().flush();
    walker.reset_stats();
    walker.translate(ctx, gva);
    EXPECT_EQ(walker.stats().guest_pt_accesses.value(), 4u);
    EXPECT_EQ(walker.stats().host_pt_accesses.value(), 0u)
        << "all five gpa->hpa translations served by the nested TLB";
    EXPECT_EQ(walker.stats().nested_tlb_hits.value(), 5u);
}

TEST_F(WalkerTest, PwcSkipsUpperGuestLevels)
{
    tlb::TlbConfig config;
    config.nested_tlb_enabled = true;
    NestedWalker walker = make_walker(config);
    vm::Process &proc = guest_.create_process("app");
    Addr region = proc.vas().mmap(2 * kPageSize);
    GuestContext ctx = guest_context(proc);

    // Pre-install both mappings so the walks below never fault.
    guest_.handle_fault(proc, page_number(region));
    guest_.handle_fault(proc, page_number(region) + 1);

    walker.translate(ctx, region);
    walker.reset_stats();
    // The adjacent page shares all non-leaf nodes: the PWC lets the
    // walker start at the leaf (1 gPT access instead of 4).
    walker.translate(ctx, region + kPageSize);
    EXPECT_EQ(walker.stats().guest_pt_accesses.value(), 1u);
}

TEST_F(WalkerTest, InvalidateForcesRewalk)
{
    NestedWalker walker = make_walker();
    vm::Process &proc = guest_.create_process("app");
    Addr gva = proc.vas().mmap(kPageSize);
    GuestContext ctx = guest_context(proc);

    walker.translate(ctx, gva);
    walker.invalidate(page_number(gva));
    TranslationResult result = walker.translate(ctx, gva);
    EXPECT_FALSE(result.tlb_hit);
    EXPECT_FALSE(result.faulted) << "mapping still installed";
}

TEST_F(WalkerTest, WalkCyclesMatchHierarchyLatencies)
{
    tlb::TlbConfig config;
    config.pwc_enabled = false;
    config.nested_tlb_enabled = false;
    NestedWalker walker = make_walker(config);
    vm::Process &proc = guest_.create_process("app");
    Addr gva = proc.vas().mmap(kPageSize);
    GuestContext ctx = guest_context(proc);

    walker.translate(ctx, gva);
    walker.flush_all();
    hierarchy_.flush_all();
    walker.reset_stats();

    TranslationResult result = walker.translate(ctx, gva);
    EXPECT_EQ(result.cycles, result.walk_cycles) << "no faults";
    EXPECT_EQ(result.walk_cycles, walker.stats().walk_cycles.value());
    EXPECT_EQ(walker.stats().walk_cycles.value(),
              walker.stats().guest_pt_cycles.value() +
                  walker.stats().host_pt_cycles.value());
    // All 24 accesses with cold caches touch at least some memory.
    EXPECT_GT(walker.stats().host_pt_mem_accesses.value(), 0u);
}

TEST_F(WalkerTest, DistinctPagesGetDistinctHostFrames)
{
    NestedWalker walker = make_walker();
    vm::Process &proc = guest_.create_process("app");
    Addr region = proc.vas().mmap(64 * kPageSize);
    GuestContext ctx = guest_context(proc);

    std::set<std::uint64_t> hfns;
    for (unsigned i = 0; i < 64; ++i)
        hfns.insert(walker.translate(ctx, region + i * kPageSize).hfn);
    EXPECT_EQ(hfns.size(), 64u);
}

TEST_F(WalkerTest, StlbHitCostsPenalty)
{
    tlb::TlbConfig config;
    config.l1_entries = 4;
    config.l1_ways = 4;
    config.l2_entries = 64;
    config.l2_ways = 4;
    NestedWalker walker = make_walker(config);
    vm::Process &proc = guest_.create_process("app");
    Addr region = proc.vas().mmap(16 * kPageSize);
    GuestContext ctx = guest_context(proc);

    // Touch 8 pages: the 4-entry L1 TLB cannot hold them all.
    for (unsigned i = 0; i < 8; ++i)
        walker.translate(ctx, region + i * kPageSize);
    TranslationResult result = walker.translate(ctx, region);
    EXPECT_TRUE(result.tlb_hit);
    EXPECT_EQ(result.cycles, NestedWalker::kStlbHitPenalty);
    EXPECT_GT(walker.stats().tlb_l2_hits.value(), 0u);
}

}  // namespace
}  // namespace ptm::mmu
