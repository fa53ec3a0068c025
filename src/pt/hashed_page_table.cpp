#include "pt/hashed_page_table.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace ptm::pt {

namespace {

constexpr std::uint64_t kNpos = ~0ull;

}  // namespace

static_assert((HashedPageTable::kInitialFrames &
               (HashedPageTable::kInitialFrames - 1)) == 0,
              "bucket indexing masks by a power-of-two frame count");

HashedPageTable::HashedPageTable(FrameSource frames)
    : source_(std::move(frames))
{
    if (!source_.allocate || !source_.release)
        ptm_fatal("hashed page table requires a complete frame source");
    frames_.reserve(kInitialFrames);
    for (std::uint64_t i = 0; i < kInitialFrames; ++i) {
        std::optional<std::uint64_t> frame = source_.allocate();
        if (!frame) {
            // Recoverable admission failure. The destructor will not run
            // after a throwing constructor, so give back what we took.
            for (std::uint64_t taken : frames_)
                source_.release(taken);
            ptm_throw("cannot allocate hashed page-table bucket frames: "
                      "%llu of %llu allocated before the frame source "
                      "ran dry",
                      static_cast<unsigned long long>(frames_.size()),
                      static_cast<unsigned long long>(kInitialFrames));
        }
        frames_.push_back(*frame);
    }
    slots_.resize(kInitialFrames * kSlotsPerFrame);
}

HashedPageTable::~HashedPageTable()
{
    for (std::uint64_t frame : frames_)
        source_.release(frame);
}

std::uint64_t
HashedPageTable::hash_vpn(std::uint64_t vpn)
{
    // splitmix64 finalizer: full-avalanche, deterministic across runs.
    std::uint64_t h = vpn + 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

std::uint64_t
HashedPageTable::tag_of(std::uint64_t vpn)
{
    const std::uint64_t tag = vpn + 1;
    if (!live(tag))
        ptm_panic("hashed page table: vpn %llu has no tag (its tag "
                  "would read as an empty slot or a tombstone)",
                  static_cast<unsigned long long>(vpn));
    return tag;
}

std::uint64_t
HashedPageTable::find_slot(std::uint64_t vpn) const
{
    const std::uint64_t tag = tag_of(vpn);
    std::uint64_t home = hash_vpn(vpn) & (slots_.size() - 1);
    for (unsigned i = 0; i < kMaxWalkSteps; ++i) {
        std::uint64_t s = probe_slot(home, i);
        const std::uint64_t t = slots_[s].tag;
        if (t == tag)
            return s;
        if (t == kEmpty)
            return kNpos;
    }
    // Insertion enforces the probe bound, so a vpn absent within it is
    // absent outright.
    return kNpos;
}

bool
HashedPageTable::place(std::vector<Slot> &slots, const Slot &slot)
{
    std::uint64_t home = hash_vpn(slot.tag - 1) & (slots.size() - 1);
    for (unsigned i = 0; i < kMaxWalkSteps; ++i) {
        std::uint64_t s = (home + i) & (slots.size() - 1);
        if (slots[s].tag == kEmpty) {
            slots[s] = slot;
            return true;
        }
    }
    return false;
}

bool
HashedPageTable::grow()
{
    std::uint64_t new_frame_count = frames_.size() * 2;
    for (;;) {
        std::vector<std::uint64_t> new_frames;
        new_frames.reserve(new_frame_count);
        bool oom = false;
        for (std::uint64_t i = 0; i < new_frame_count; ++i) {
            std::optional<std::uint64_t> frame = source_.allocate();
            if (!frame) {
                oom = true;
                break;
            }
            new_frames.push_back(*frame);
        }
        if (oom) {
            for (std::uint64_t frame : new_frames)
                source_.release(frame);
            return false;
        }

        std::vector<Slot> new_slots(new_frame_count * kSlotsPerFrame);
        bool fits = true;
        for (const Slot &slot : slots_) {
            if (!live(slot.tag))
                continue;
            if (!place(new_slots, slot)) {
                fits = false;
                break;
            }
        }
        if (!fits) {
            // A chain still exceeds the probe bound at this size: free
            // the attempt and double again.
            for (std::uint64_t frame : new_frames)
                source_.release(frame);
            new_frame_count *= 2;
            continue;
        }

        for (std::uint64_t frame : frames_)
            source_.release(frame);
        frames_ = std::move(new_frames);
        slots_ = std::move(new_slots);
        used_ = occupied_;  // rehash clears tombstones
        return true;
    }
}

bool
HashedPageTable::map(std::uint64_t vpn, const PteFields &fields)
{
    PteFields with_present = fields;
    with_present.present = true;
    const Slot entry{tag_of(vpn), Pte::encode(with_present)};

    std::uint64_t existing = find_slot(vpn);
    if (existing != kNpos) {
        slots_[existing] = entry;
        return true;
    }

    for (;;) {
        // Grow at ~70% load (tombstones included: they lengthen probes
        // just like live entries).
        if ((used_ + 1) * 10 > slots_.size() * 7) {
            if (!grow())
                return false;
        }
        std::uint64_t home = hash_vpn(vpn) & (slots_.size() - 1);
        for (unsigned i = 0; i < kMaxWalkSteps; ++i) {
            std::uint64_t s = probe_slot(home, i);
            Slot &slot = slots_[s];
            if (live(slot.tag))
                continue;
            if (slot.tag == kEmpty)
                ++used_;
            slot = entry;
            ++occupied_;
            return true;
        }
        // Chain exceeds the probe bound: rehash into a bigger table so
        // the mapped-implies-bounded invariant keeps holding.
        if (!grow())
            return false;
    }
}

void
HashedPageTable::unmap(std::uint64_t vpn)
{
    std::uint64_t s = find_slot(vpn);
    if (s == kNpos)
        return;
    // Tombstone, not Empty: later entries probe through this slot.
    slots_[s] = Slot{kTombstone, Pte{}};
    --occupied_;
}

std::optional<Pte>
HashedPageTable::lookup(std::uint64_t vpn) const
{
    std::uint64_t s = find_slot(vpn);
    if (s == kNpos)
        return std::nullopt;
    return slots_[s].pte;
}

bool
HashedPageTable::update(std::uint64_t vpn, const PteFields &fields)
{
    std::uint64_t s = find_slot(vpn);
    if (s == kNpos)
        return false;
    PteFields with_present = fields;
    with_present.present = true;
    slots_[s].pte = Pte::encode(with_present);
    return true;
}

WalkResult
HashedPageTable::walk(std::uint64_t vpn, WalkSteps &steps) const
{
    const std::uint64_t tag = tag_of(vpn);
    std::uint64_t home = hash_vpn(vpn) & (slots_.size() - 1);
    unsigned n = 0;
    for (unsigned i = 0; i < kMaxWalkSteps; ++i) {
        std::uint64_t s = probe_slot(home, i);
        const Slot &slot = slots_[s];
        WalkStep &step = steps[n++];
        step.level = i;
        step.node_frame = frames_[s / kSlotsPerFrame];
        step.index = static_cast<unsigned>(s % kSlotsPerFrame);
        step.entry_paddr = slot_paddr(s);
        if (slot.tag == tag) {
            step.pte = slot.pte;
            return WalkResult{.steps = n, .complete = true};
        }
        if (slot.tag == kEmpty) {
            step.pte = Pte{};
            return WalkResult{.steps = n, .complete = false};
        }
        // Non-matching entry or deletion marker (whose PTE is Pte{}, so
        // frame 0): the walker reads a foreign slot and keeps probing;
        // report it as present so the generic walk loop does not mistake
        // it for a fault.
        step.pte = Pte::encode({.present = true, .frame = slot.pte.frame()});
    }
    // Probe bound exhausted without a match. Mapped vpns never get here
    // (insertion enforces the bound), so signal a fault via a final
    // non-present entry.
    steps[kMaxWalkSteps - 1].pte = Pte{};
    return WalkResult{.steps = kMaxWalkSteps, .complete = false};
}

std::optional<Addr>
HashedPageTable::leaf_entry_paddr(std::uint64_t vpn) const
{
    std::uint64_t s = find_slot(vpn);
    if (s == kNpos)
        return std::nullopt;
    return slot_paddr(s);
}

}  // namespace ptm::pt
