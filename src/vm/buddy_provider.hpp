/**
 * @file
 * The default Linux allocation policy: one buddy-allocator call per fault.
 */
#pragma once

#include "vm/page_provider.hpp"

namespace ptm::vm {

class GuestKernel;

/**
 * Baseline provider modelling the stock Linux/x86 page-fault handler
 * (§2.2): every fault requests exactly one order-0 frame from the buddy
 * allocator, in fault-arrival order.
 */
class BuddyPageProvider final : public PhysicalPageProvider {
  public:
    explicit BuddyPageProvider(GuestKernel *kernel);

    AllocOutcome allocate_page(Process &proc, std::uint64_t gvpn) override;
    FreeDisposition on_page_freed(Process &proc, std::uint64_t gvpn,
                                  std::uint64_t gfn) override;
    void on_process_exit(Process &proc) override;

  private:
    GuestKernel *kernel_;
};

}  // namespace ptm::vm
