/**
 * @file
 * Tests for the host kernel / hypervisor model.
 */
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "host/host_kernel.hpp"
#include "pt/hashed_page_table.hpp"

namespace ptm::host {
namespace {

TEST(HostKernel, LazyBackingOnFault)
{
    HostKernel host(1024);
    VmInstance &vm = host.create_vm();
    EXPECT_EQ(vm.backed_pages(), 0u);

    mmu::FaultOutcome outcome = host.handle_fault(vm, 42);
    ASSERT_TRUE(outcome.ok);
    EXPECT_GT(outcome.cycles, 0u);
    auto pte = vm.page_table().lookup(42);
    ASSERT_TRUE(pte);
    EXPECT_EQ(pte->frame(), outcome.frame);
    EXPECT_EQ(vm.backed_pages(), 1u);
    EXPECT_EQ(host.stats().pages_backed.value(), 1u);
}

TEST(HostKernel, GuestFrameIsHostVirtualPageNumber)
{
    // The §3.1 identity: the host PT is indexed directly by the guest
    // frame number, so adjacent guest frames share a host PTE cache line.
    HostKernel host(1024);
    VmInstance &vm = host.create_vm();
    host.handle_fault(vm, 8);
    host.handle_fault(vm, 9);
    Addr line_a = *vm.page_table().leaf_entry_paddr(8) / kCacheLineSize;
    Addr line_b = *vm.page_table().leaf_entry_paddr(9) / kCacheLineSize;
    EXPECT_EQ(line_a, line_b);
    // ...while distant guest frames do not.
    host.handle_fault(vm, 9000);
    Addr line_c = *vm.page_table().leaf_entry_paddr(9000) / kCacheLineSize;
    EXPECT_NE(line_a, line_c);
}

TEST(HostKernel, FrameAccounting)
{
    HostKernel host(256);
    VmInstance &vm = host.create_vm();
    std::uint64_t before = host.buddy().free_frames_count();
    host.handle_fault(vm, 0);
    // One data frame plus up to 3 new page-table nodes (root exists).
    std::uint64_t used = before - host.buddy().free_frames_count();
    EXPECT_EQ(used, 4u);
    EXPECT_EQ(host.memory().count_use(mem::FrameUse::Data, vm.id()), 1u);
    EXPECT_GE(host.memory().count_use(mem::FrameUse::PageTable, vm.id()),
              3u);
}

TEST(HostKernel, OutOfMemoryReported)
{
    HostKernel host(8);
    VmInstance &vm = host.create_vm();
    bool failed = false;
    // Distant guest frames need fresh PT paths; 8 frames run out fast.
    for (unsigned i = 0; i < 4 && !failed; ++i) {
        failed = !host.handle_fault(vm, std::uint64_t{i} * 512 * 512).ok;
    }
    EXPECT_TRUE(failed);
}

TEST(HostKernel, VmBootPastCapacityThrowsRecoverableError)
{
    // Each radix VM boot consumes one host frame for the page-table
    // root: a 2-frame host admits two VMs and must refuse the third
    // with a recoverable SimError naming the shortfall — not an assert
    // deep inside the buddy allocator.
    HostKernel host(2);
    host.create_vm();
    host.create_vm();
    try {
        host.create_vm();
        FAIL() << "third create_vm() should have thrown";
    } catch (const SimError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("free frames"), std::string::npos)
            << message;
    }
    // The refusal left the host consistent: both admitted VMs work.
    EXPECT_EQ(host.live_vm_count(), 2u);
    host.buddy().check_invariants();
}

TEST(HostKernel, HashedVmBootPastCapacityThrowsAndLeaksNothing)
{
    // The hashed table allocates its bucket array at boot; a refused
    // boot must release any frames it already took.
    static_assert(pt::HashedPageTable::kInitialFrames == 4);
    HostKernel host(6);
    host.set_translation_table("hashed");
    host.create_vm();  // takes 4 of the 6 frames
    const std::uint64_t free_before = host.buddy().free_frames_count();
    EXPECT_THROW(host.create_vm(), SimError);
    EXPECT_EQ(host.buddy().free_frames_count(), free_before);
    host.buddy().check_invariants();
}

TEST(HostKernel, MultipleVmsAreIndependent)
{
    HostKernel host(1024);
    VmInstance &vm1 = host.create_vm();
    VmInstance &vm2 = host.create_vm();
    host.handle_fault(vm1, 5);
    EXPECT_TRUE(vm1.page_table().lookup(5).has_value());
    EXPECT_FALSE(vm2.page_table().lookup(5).has_value());
    host.handle_fault(vm2, 5);
    EXPECT_NE(vm1.page_table().lookup(5)->frame(),
              vm2.page_table().lookup(5)->frame());
}

}  // namespace
}  // namespace ptm::host
