// Delivery trace: every final packet delivery of a run, recorded per island
// so the determinism checks can checksum it (ClusterSim::
// enable_delivery_trace()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>

#include "util/fnv.h"

namespace silo::sim {

/// One delivered packet.
struct DeliveryRecord {
  std::int64_t at_ns;
  std::int32_t src_vm;
  std::int32_t dst_vm;
  std::int64_t seq;
  std::int64_t ack_seq;
  std::int32_t payload;  ///< range-checked by the recorder
  std::uint32_t flags;   ///< is_ack | ecn<<1 | echo<<2 | prio<<3
};
static_assert(sizeof(DeliveryRecord) == 40);

/// FNV-1a fold of one record, field by field (fnv1a_word per field).
std::uint64_t fold_record(std::uint64_t h, const DeliveryRecord& r);

/// One island's records in arrival order: nondecreasing `at_ns`, because
/// an island records each delivery at its own clock. A deque, so an append
/// never copies what is already recorded and allocates one small block at
/// a time.
using DeliveryTrace = std::deque<DeliveryRecord>;

/// Checksum of the union of `traces` in canonical order — by the full
/// record tuple — so it does not depend on how deliveries were split
/// across islands.
std::uint64_t canonical_trace_checksum(
    std::span<const DeliveryTrace* const> traces);

}  // namespace silo::sim
