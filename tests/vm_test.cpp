/**
 * @file
 * Tests for the guest kernel model: address spaces, fault handling,
 * frame accounting, region freeing, and fork/COW semantics.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "vm/guest_kernel.hpp"
#include "vm/provider_factory.hpp"
#include "vm/reserve_thp_provider.hpp"
#include "vm/virtual_address_space.hpp"

namespace ptm::vm {
namespace {

TEST(Vas, MmapIsEagerAndPageGranular)
{
    VirtualAddressSpace vas;
    Addr a = vas.mmap(10 * kPageSize);
    Addr b = vas.mmap(1);  // rounds up to one page
    EXPECT_NE(a, b);
    EXPECT_TRUE(vas.is_mapped(page_number(a)));
    EXPECT_TRUE(vas.is_mapped(page_number(a) + 9));
    EXPECT_TRUE(vas.is_mapped(page_number(b)));
    EXPECT_EQ(vas.total_pages(), 11u);
}

TEST(Vas, RegionsDoNotOverlap)
{
    VirtualAddressSpace vas;
    std::vector<Vma> vmas;
    for (int i = 0; i < 50; ++i)
        vas.mmap((i % 7 + 1) * kPageSize);
    vmas = vas.vmas();
    for (std::size_t i = 1; i < vmas.size(); ++i)
        EXPECT_LE(vmas[i - 1].end_page, vmas[i].begin_page);
}

TEST(Vas, BrkGrowsHeapContiguously)
{
    VirtualAddressSpace vas;
    Addr first = vas.brk(3 * kPageSize);
    Addr second = vas.brk(2 * kPageSize);
    EXPECT_EQ(second, first + 3 * kPageSize);
    // One contiguous heap VMA of 5 pages.
    const Vma *vma = vas.find(page_number(first));
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->pages(), 5u);
}

TEST(Vas, MunmapRemovesRegion)
{
    VirtualAddressSpace vas;
    Addr a = vas.mmap(4 * kPageSize);
    auto vma = vas.munmap(a);
    ASSERT_TRUE(vma);
    EXPECT_EQ(vma->pages(), 4u);
    EXPECT_FALSE(vas.is_mapped(page_number(a)));
    EXPECT_FALSE(vas.munmap(a).has_value());
}

TEST(Vas, FindOutsideRegions)
{
    VirtualAddressSpace vas;
    vas.mmap(kPageSize);
    EXPECT_EQ(vas.find(0), nullptr);
    EXPECT_EQ(vas.find(~0ull >> 12), nullptr);
}

class GuestKernelTest : public ::testing::Test {
  protected:
    GuestKernelTest() : kernel_(2048) {}

    std::uint64_t
    fault(Process &proc, std::uint64_t gvpn)
    {
        mmu::FaultOutcome outcome = kernel_.handle_fault(proc, gvpn);
        EXPECT_TRUE(outcome.ok);
        EXPECT_GT(outcome.cycles, 0u);
        return outcome.frame;
    }

    GuestKernel kernel_;
};

TEST_F(GuestKernelTest, FaultMapsAndAccounts)
{
    Process &proc = kernel_.create_process("app");
    Addr base = proc.vas().mmap(4 * kPageSize);
    std::uint64_t gvpn = page_number(base);

    std::uint64_t gfn = fault(proc, gvpn);
    auto pte = proc.page_table().lookup(gvpn);
    ASSERT_TRUE(pte);
    EXPECT_EQ(pte->frame(), gfn);
    EXPECT_EQ(proc.rss_pages(), 1u);
    EXPECT_EQ(kernel_.memory().info(gfn).use, mem::FrameUse::Data);
    EXPECT_EQ(kernel_.memory().info(gfn).owner(), proc.pid());
    EXPECT_EQ(kernel_.stats().faults_handled.value(), 1u);
}

TEST_F(GuestKernelTest, SequentialFaultsGetContiguousFramesInIsolation)
{
    // §2.4: a lone process keeps physical contiguity. The very first
    // fault also allocates the page-table path, so contiguity starts
    // from the second data frame.
    Process &proc = kernel_.create_process("app");
    Addr base = proc.vas().mmap(16 * kPageSize);
    std::uint64_t gvpn = page_number(base);
    fault(proc, gvpn);
    std::uint64_t second = fault(proc, gvpn + 1);
    for (unsigned i = 2; i < 16; ++i)
        EXPECT_EQ(fault(proc, gvpn + i), second + (i - 1));
}

TEST_F(GuestKernelTest, InterleavedFaultsFragment)
{
    // §2.4: interleaved faults from two processes destroy contiguity —
    // the defect PTEMagnet exists to fix (the default provider is the
    // stock buddy path here).
    Process &a = kernel_.create_process("a");
    Process &b = kernel_.create_process("b");
    std::uint64_t vpn_a = page_number(a.vas().mmap(8 * kPageSize));
    std::uint64_t vpn_b = page_number(b.vas().mmap(8 * kPageSize));

    std::uint64_t prev = fault(a, vpn_a);
    bool contiguous = true;
    for (unsigned i = 1; i < 8; ++i) {
        fault(b, vpn_b + i);  // interloper
        std::uint64_t gfn = fault(a, vpn_a + i);
        contiguous = contiguous && (gfn == prev + 1);
        prev = gfn;
    }
    EXPECT_FALSE(contiguous);
}

TEST_F(GuestKernelTest, FreeRegionReturnsEverything)
{
    Process &proc = kernel_.create_process("app");
    std::uint64_t free_at_start = kernel_.buddy().free_frames_count();
    Addr base = proc.vas().mmap(8 * kPageSize);
    for (unsigned i = 0; i < 8; ++i)
        fault(proc, page_number(base) + i);

    kernel_.free_region(proc, base);
    EXPECT_EQ(proc.rss_pages(), 0u);
    EXPECT_FALSE(proc.vas().is_mapped(page_number(base)));
    // Only page-table node frames remain allocated.
    EXPECT_EQ(free_at_start - kernel_.buddy().free_frames_count(),
              proc.page_table().node_count() - 1);
    kernel_.buddy().check_invariants();
}

TEST_F(GuestKernelTest, SpuriousFaultIsIdempotent)
{
    Process &proc = kernel_.create_process("app");
    Addr base = proc.vas().mmap(kPageSize);
    std::uint64_t gfn = fault(proc, page_number(base));
    std::uint64_t used = kernel_.buddy().allocated_frames_count();
    // A second fault on the mapped page returns the same frame and
    // allocates nothing (the real kernel's spurious-fault path).
    EXPECT_EQ(fault(proc, page_number(base)), gfn);
    EXPECT_EQ(kernel_.buddy().allocated_frames_count(), used);
    EXPECT_EQ(kernel_.stats().faults_handled.value(), 1u);
}

TEST_F(GuestKernelTest, ForkSharesPagesCopyOnWrite)
{
    Process &parent = kernel_.create_process("parent");
    Addr base = parent.vas().mmap(4 * kPageSize);
    std::uint64_t gvpn = page_number(base);
    std::uint64_t gfn = fault(parent, gvpn);

    Process &child = kernel_.fork(parent);
    EXPECT_EQ(child.parent_pid(), parent.pid());
    auto parent_pte = parent.page_table().lookup(gvpn);
    auto child_pte = child.page_table().lookup(gvpn);
    ASSERT_TRUE(parent_pte && child_pte);
    EXPECT_EQ(parent_pte->frame(), gfn);
    EXPECT_EQ(child_pte->frame(), gfn);
    EXPECT_TRUE(parent_pte->cow());
    EXPECT_TRUE(child_pte->cow());
    EXPECT_FALSE(parent_pte->writable());
    EXPECT_TRUE(kernel_.is_cow(parent, gvpn));
}

TEST_F(GuestKernelTest, CowBreakCopiesForWriter)
{
    Process &parent = kernel_.create_process("parent");
    Addr base = parent.vas().mmap(kPageSize);
    std::uint64_t gvpn = page_number(base);
    std::uint64_t shared_gfn = fault(parent, gvpn);
    Process &child = kernel_.fork(parent);

    Cycles cost = kernel_.handle_write(child, gvpn);
    EXPECT_GT(cost, 0u);
    auto child_pte = child.page_table().lookup(gvpn);
    ASSERT_TRUE(child_pte);
    EXPECT_NE(child_pte->frame(), shared_gfn);
    EXPECT_TRUE(child_pte->writable());
    EXPECT_FALSE(child_pte->cow());
    // Parent still points at the original frame, still COW until its
    // own write.
    EXPECT_EQ(parent.page_table().lookup(gvpn)->frame(), shared_gfn);

    // Parent's write: last owner takes the frame back in place, no copy.
    Cycles parent_cost = kernel_.handle_write(parent, gvpn);
    EXPECT_GT(parent_cost, 0u);
    EXPECT_LT(parent_cost, cost);
    EXPECT_EQ(parent.page_table().lookup(gvpn)->frame(), shared_gfn);
    EXPECT_TRUE(parent.page_table().lookup(gvpn)->writable());
}

TEST_F(GuestKernelTest, WriteToPrivatePageIsFree)
{
    Process &proc = kernel_.create_process("app");
    Addr base = proc.vas().mmap(kPageSize);
    fault(proc, page_number(base));
    EXPECT_EQ(kernel_.handle_write(proc, page_number(base)), 0u);
}

TEST_F(GuestKernelTest, SharedFrameFreedOnlyByLastOwner)
{
    Process &parent = kernel_.create_process("parent");
    Addr base = parent.vas().mmap(kPageSize);
    std::uint64_t gvpn = page_number(base);
    std::uint64_t gfn = fault(parent, gvpn);
    Process &child = kernel_.fork(parent);

    std::uint64_t free_before = kernel_.buddy().free_frames_count();
    kernel_.free_page(child, gvpn);
    EXPECT_EQ(kernel_.buddy().free_frames_count(), free_before)
        << "frame still referenced by the parent";
    // Parent still has a valid mapping to the frame.
    EXPECT_EQ(parent.page_table().lookup(gvpn)->frame(), gfn);
    kernel_.free_page(parent, gvpn);
    EXPECT_EQ(kernel_.buddy().free_frames_count(), free_before + 1);
}

TEST_F(GuestKernelTest, InvalidationHookFires)
{
    std::vector<std::pair<std::int32_t, std::uint64_t>> invalidations;
    kernel_.on_translation_invalidated =
        [&invalidations](std::int32_t pid, std::uint64_t gvpn) {
            invalidations.emplace_back(pid, gvpn);
        };
    Process &proc = kernel_.create_process("app");
    Addr base = proc.vas().mmap(kPageSize);
    std::uint64_t gvpn = page_number(base);
    fault(proc, gvpn);
    kernel_.free_page(proc, gvpn);
    ASSERT_EQ(invalidations.size(), 1u);
    EXPECT_EQ(invalidations[0].first, proc.pid());
    EXPECT_EQ(invalidations[0].second, gvpn);
}

TEST_F(GuestKernelTest, OomReportsFailure)
{
    GuestKernel tiny(8);
    Process &proc = tiny.create_process("app");
    Addr base = proc.vas().mmap(32 * kPageSize);
    std::uint64_t gvpn = page_number(base);
    bool failed = false;
    for (unsigned i = 0; i < 32 && !failed; ++i)
        failed = !tiny.handle_fault(proc, gvpn + i).ok;
    EXPECT_TRUE(failed);
    EXPECT_GT(tiny.stats().oom_events.value(), 0u);
}

/// A guest under the THP-shaped policy named by the parameter. Each case
/// faults the only page of a one-page VMA, whose reservation parks the
/// other 511 frames of its 2 MiB block (promotion has nothing else to
/// map), then drains the buddy, so the next allocation can only come
/// from that tail.
class ParkedFramesTest : public GuestKernelTest,
                         public ::testing::WithParamInterface<std::string> {
  protected:
    ParkedFramesTest()
    {
        auto provider = make_provider(GetParam(), &kernel_, {});
        provider_ = provider.get();
        kernel_.set_provider(std::move(provider));
    }

    void
    drain_buddy()
    {
        ASSERT_EQ(provider_->held_frames(), kParked);
        while (kernel_.buddy().allocate_frame()) {
        }
    }

    static constexpr std::uint64_t kRegionPages =
        ReserveThpProvider::kRegionPages;
    static constexpr std::uint64_t kParked = kRegionPages - 1;
    PhysicalPageProvider *provider_ = nullptr;
};

TEST_P(ParkedFramesTest, OomFaultIsServedFromParkedFrames)
{
    Process &proc = kernel_.create_process("app");
    std::uint64_t gvpn = page_number(proc.vas().mmap(kPageSize));
    fault(proc, gvpn);
    drain_buddy();

    // A page of the next 2 MiB region: no reservation to serve it, and
    // no free frame left but the parked ones.
    std::uint64_t next =
        page_number(proc.vas().mmap(kRegionPages * kPageSize)) +
        kRegionPages - 1;
    ASSERT_EQ(next / kRegionPages, gvpn / kRegionPages + 1);
    fault(proc, next);
    EXPECT_EQ(kernel_.stats().oom_events.value(), 0u);
    EXPECT_EQ(kernel_.stats().reclaim_runs.value(), 1u);
    EXPECT_EQ(kernel_.stats().frames_reclaimed.value(), kParked);
    EXPECT_EQ(provider_->held_frames(), 0u);
}

TEST_P(ParkedFramesTest, OomCowBreakIsServedFromParkedFrames)
{
    Process &parent = kernel_.create_process("parent");
    Addr base = parent.vas().mmap(kPageSize);
    std::uint64_t gvpn = page_number(base);
    std::uint64_t shared_gfn = fault(parent, gvpn);
    Process &child = kernel_.fork(parent);
    drain_buddy();

    EXPECT_GT(kernel_.handle_write(child, gvpn), 0u);
    EXPECT_NE(child.page_table().lookup(gvpn)->frame(), shared_gfn);
    EXPECT_EQ(kernel_.stats().reclaim_runs.value(), 1u);
    EXPECT_EQ(kernel_.stats().frames_reclaimed.value(), kParked);
    EXPECT_EQ(provider_->held_frames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ThpPolicies, ParkedFramesTest,
                         ::testing::Values("reserve_thp", "thp"));

TEST_F(GuestKernelTest, ExitReclaimsAllMemory)
{
    std::uint64_t free_at_start = kernel_.buddy().free_frames_count();
    Process &proc = kernel_.create_process("app");
    Addr base = proc.vas().mmap(32 * kPageSize);
    for (unsigned i = 0; i < 32; ++i)
        fault(proc, page_number(base) + i);
    std::int32_t pid = proc.pid();
    kernel_.exit_process(proc);
    EXPECT_FALSE(kernel_.has_process(pid));
    EXPECT_EQ(kernel_.buddy().free_frames_count(), free_at_start);
    kernel_.buddy().check_invariants();
}

}  // namespace
}  // namespace ptm::vm
