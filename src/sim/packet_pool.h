// Packet arena for the simulator's hot path. Ports, hosts and transports
// pass 4-byte handles instead of moving 96-byte Packet structs through the
// event queue; the backing storage is a freelist-recycled arena that stops
// growing once the simulation reaches its steady-state packet population.
//
// One arena slot holds a packet and its latency-breakdown stage record
// (obs::PacketStages): 96 + 48 bytes, three cache lines, no over-alignment.
// Every site that charges a stage is already touching the packet, so the
// record rides the same lines instead of a second per-slot table. alloc()
// and clone() start the record untracked; the transport starts tracking at
// emit, and a cross-island arrival restores the snapshot it carried.
//
// Handles are generation-tagged: the low 24 bits index the arena slot, the
// high 8 bits carry the slot's generation, bumped on every free. A stale
// handle (kept across a free/realloc of its slot) therefore never aliases
// the slot's new occupant — free() always rejects it, and under SILO_AUDIT
// every get() validates too, so use-after-free through a recycled handle
// fails deterministically instead of silently reading another packet.
//
// Lifetime contract (see DESIGN.md "Event engine"): exactly one owner per
// live handle. Whoever removes a packet from circulation — a port dropping
// it, the fabric discarding a void frame, ClusterSim consuming a delivery —
// frees it. Double frees and frees of never-allocated handles throw, so
// recycling bugs fail deterministically even in unsanitized builds.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/packet_stages.h"
#include "sim/packet.h"

namespace silo::sim {

using PacketHandle = std::uint32_t;
inline constexpr PacketHandle kNullPacket = 0xffffffffu;

class PacketPool {
 public:
  static constexpr int kSlotBits = 24;
  static constexpr PacketHandle kSlotMask = (1u << kSlotBits) - 1u;

  static constexpr std::uint32_t slot_of(PacketHandle h) {
    return h & kSlotMask;
  }
  static constexpr std::uint32_t generation_of(PacketHandle h) {
    return h >> kSlotBits;
  }

  /// Fresh default-constructed packet with an untracked stage record.
  /// Reuses a freed slot when available; the arena only grows while the
  /// live population sets a new high-water mark, so steady-state
  /// allocation count is zero.
  PacketHandle alloc() {
    ++allocs_;
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      if (arena_.size() >= kSlotMask)
        throw std::length_error("PacketPool: arena exceeds 2^24 slots");
      slot = static_cast<std::uint32_t>(arena_.size());
      arena_.emplace_back();
      live_bit_.push_back(false);
      gen_.push_back(0);
    }
    arena_[slot] = Slot{};
    live_bit_[slot] = true;
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    return make_handle(slot);
  }

  /// Allocate a handle holding a copy of `p` (tests and drivers that build
  /// packets by hand, cross-island arrivals). The stage record starts
  /// untracked, like alloc()'s.
  PacketHandle clone(const Packet& p) {
    const PacketHandle h = alloc();
    arena_[slot_of(h)].packet = p;
    return h;
  }

  void free(PacketHandle h) {
    const std::uint32_t slot = slot_of(h);
    if (slot >= arena_.size() || !live_bit_[slot] ||
        generation_of(h) != gen_[slot])
      throw std::logic_error("PacketPool: free of dead or invalid handle");
    live_bit_[slot] = false;
    gen_[slot] = (gen_[slot] + 1u) & 0xffu;  // invalidate outstanding copies
    free_.push_back(slot);
    --live_;
    ++frees_;
  }

  Packet& get(PacketHandle h) {
    audit(h);
    return arena_[slot_of(h)].packet;
  }
  const Packet& get(PacketHandle h) const {
    audit(h);
    return arena_[slot_of(h)].packet;
  }

  /// The packet's stage record (latency-breakdown attribution).
  obs::PacketStages& stages(PacketHandle h) {
    audit(h);
    return arena_[slot_of(h)].stages;
  }
  const obs::PacketStages& stages(PacketHandle h) const {
    audit(h);
    return arena_[slot_of(h)].stages;
  }

  /// Pull a slot toward the cache ahead of an event that will touch it.
  void prefetch(PacketHandle h) const {
    const char* p = reinterpret_cast<const char*>(&arena_[slot_of(h)]);
    __builtin_prefetch(p);
    __builtin_prefetch(p + 64);
    __builtin_prefetch(p + sizeof(Slot) - 1);
  }

  /// Live packets currently owned by some component.
  std::int64_t live() const { return live_; }
  /// Arena slots ever created — constant in steady state; growth after
  /// warmup means a leak or an unbounded queue.
  std::size_t capacity() const { return arena_.size(); }
  std::int64_t total_allocs() const { return allocs_; }
  std::int64_t total_frees() const { return frees_; }
  std::int64_t peak_live() const { return peak_live_; }

 private:
  PacketHandle make_handle(std::uint32_t slot) const {
    return slot | (static_cast<PacketHandle>(gen_[slot]) << kSlotBits);
  }

  void audit(PacketHandle h) const {
#ifdef SILO_AUDIT
    const std::uint32_t slot = slot_of(h);
    if (slot >= arena_.size() || !live_bit_[slot] ||
        generation_of(h) != gen_[slot])
      throw std::logic_error("PacketPool: deref of dead or stale handle");
#else
    (void)h;
#endif
  }

  struct Slot {
    Packet packet;
    obs::PacketStages stages;
  };
  static_assert(sizeof(Packet) == 96 && sizeof(Slot) == 144,
                "pool slot layout: 96-byte packet + 48-byte stage record");

  std::vector<Slot> arena_;
  std::vector<bool> live_bit_;   ///< double-free detection, always on
  std::vector<std::uint8_t> gen_;  ///< per-slot generation (wraps at 256)
  std::vector<std::uint32_t> free_;
  std::int64_t live_ = 0;
  std::int64_t peak_live_ = 0;
  std::int64_t allocs_ = 0;
  std::int64_t frees_ = 0;
};

}  // namespace silo::sim
