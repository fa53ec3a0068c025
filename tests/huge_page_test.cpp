/**
 * @file
 * Tests for the "thp" policy (the §2.3 comparison policy): a 2 MiB
 * reservation promoted on its first fault, so every in-VMA page of the
 * region is backed eagerly.
 */
#include <gtest/gtest.h>

#include "core/provider_factory.hpp"
#include "vm/guest_kernel.hpp"
#include "vm/reserve_thp_provider.hpp"

namespace ptm::vm {
namespace {

/// Install the "thp" policy in @p kernel and return it.
ReserveThpProvider *
install_thp(GuestKernel &kernel)
{
    auto provider = core::make_provider("thp", &kernel, {});
    auto *raw = dynamic_cast<ReserveThpProvider *>(provider.get());
    EXPECT_NE(raw, nullptr);
    kernel.set_provider(std::move(provider));
    return raw;
}

class HugePageTest : public ::testing::Test {
  protected:
    HugePageTest() : kernel_(8192), provider_(install_thp(kernel_)) {}

    GuestKernel kernel_;
    ReserveThpProvider *provider_;
};

TEST_F(HugePageTest, FirstFaultBacksWholeRegionEagerly)
{
    Process &proc = kernel_.create_process("app");
    Addr base = proc.vas().mmap(512 * kPageSize);
    std::uint64_t gvpn = page_number(base);

    mmu::FaultOutcome outcome = kernel_.handle_fault(proc, gvpn);
    ASSERT_TRUE(outcome.ok);
    EXPECT_EQ(provider_->stats().promotions.value(), 1u);
    // Every page of the (VMA-covered) region got mapped immediately.
    EXPECT_EQ(proc.rss_pages(), 512u);
    for (unsigned i = 0; i < 512; ++i)
        EXPECT_TRUE(proc.page_table().lookup(gvpn + i)) << i;
}

TEST_F(HugePageTest, MappingsAreContiguousAndAligned)
{
    Process &proc = kernel_.create_process("app");
    Addr base = proc.vas().mmap(512 * kPageSize);
    std::uint64_t gvpn = page_number(base);
    kernel_.handle_fault(proc, gvpn + 100);

    std::uint64_t first = proc.page_table().lookup(gvpn)->frame();
    EXPECT_EQ(first % 512, 0u);
    for (unsigned i = 1; i < 512; ++i)
        EXPECT_EQ(proc.page_table().lookup(gvpn + i)->frame(), first + i);
}

TEST_F(HugePageTest, PartialVmaLeavesUnusedBackedFrames)
{
    Process &proc = kernel_.create_process("app");
    // A small VMA: the eager region spans 512 pages but only 64 are
    // inside the mapping (the huge-page regions are VA-aligned, and the
    // mmap area base is 2 MiB-aligned here).
    Addr base = proc.vas().mmap(64 * kPageSize);
    std::uint64_t gvpn = page_number(base);
    ASSERT_EQ(gvpn % 512, 0u);
    kernel_.handle_fault(proc, gvpn);

    EXPECT_EQ(proc.rss_pages(), 64u);
    EXPECT_EQ(provider_->held_frames(), 512u - 64u);
    EXPECT_EQ(kernel_.memory().count_use(mem::FrameUse::Reserved,
                                         proc.pid()),
              512u - 64u);
}

TEST_F(HugePageTest, LaterVmaFaultServedFromRetainedFrames)
{
    Process &proc = kernel_.create_process("app");
    Addr base = proc.vas().mmap(64 * kPageSize);
    std::uint64_t gvpn = page_number(base);
    kernel_.handle_fault(proc, gvpn);
    std::uint64_t first = proc.page_table().lookup(gvpn)->frame();

    // A new VMA lands inside the already-backed region: faults there are
    // served from the retained frames, preserving contiguity.
    Addr more = proc.vas().mmap(64 * kPageSize);
    std::uint64_t more_vpn = page_number(more);
    ASSERT_EQ(more_vpn / 512, gvpn / 512) << "same huge region";
    kernel_.handle_fault(proc, more_vpn);
    EXPECT_EQ(proc.page_table().lookup(more_vpn)->frame(),
              first + (more_vpn - gvpn));
}

TEST_F(HugePageTest, FallsBackWhenNoContiguousBlock)
{
    GuestKernel small(600);
    ReserveThpProvider *raw = install_thp(small);
    Process &proc = small.create_process("app");
    // Eat frames until no order-9 block remains.
    while (small.buddy().can_allocate(9))
        ASSERT_TRUE(small.buddy().allocate(9));
    Addr base = proc.vas().mmap(512 * kPageSize);
    mmu::FaultOutcome outcome =
        small.handle_fault(proc, page_number(base));
    ASSERT_TRUE(outcome.ok);
    EXPECT_EQ(raw->stats().fallback_singles.value(), 1u);
    EXPECT_EQ(proc.rss_pages(), 1u);
}

TEST_F(HugePageTest, ExitReturnsRetainedFrames)
{
    std::uint64_t free_at_start = kernel_.buddy().free_frames_count();
    Process &proc = kernel_.create_process("app");
    Addr base = proc.vas().mmap(64 * kPageSize);
    kernel_.handle_fault(proc, page_number(base));
    EXPECT_GT(provider_->held_frames(), 0u);
    kernel_.exit_process(proc);
    EXPECT_EQ(kernel_.buddy().free_frames_count(), free_at_start);
    kernel_.buddy().check_invariants();
}

TEST_F(HugePageTest, FreedPageIsParkedAndReclaimable)
{
    Process &proc = kernel_.create_process("app");
    Addr base = proc.vas().mmap(512 * kPageSize);
    std::uint64_t gvpn = page_number(base);
    kernel_.handle_fault(proc, gvpn);
    ASSERT_EQ(provider_->held_frames(), 0u);
    std::uint64_t gfn = proc.page_table().lookup(gvpn + 7)->frame();
    std::uint64_t free_before = kernel_.buddy().free_frames_count();

    // Freeing a page of the promoted region parks its frame (the
    // deferred split of a partly unmapped THP) instead of freeing it.
    kernel_.free_page(proc, gvpn + 7);
    EXPECT_EQ(provider_->held_frames(), 1u);
    EXPECT_EQ(kernel_.memory().info(gfn).use, mem::FrameUse::Reserved);
    EXPECT_EQ(kernel_.buddy().free_frames_count(), free_before);

    // Pressure hands it back to the buddy.
    EXPECT_EQ(provider_->reclaim(1), 1u);
    EXPECT_EQ(provider_->held_frames(), 0u);
    EXPECT_EQ(kernel_.memory().info(gfn).use, mem::FrameUse::Free);
    EXPECT_EQ(kernel_.buddy().free_frames_count(), free_before + 1);
}

}  // namespace
}  // namespace ptm::vm
