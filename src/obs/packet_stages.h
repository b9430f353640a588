// PacketStages: per-packet stage accounting for latency-breakdown
// attribution.
//
// The record lives in the packet's own pool slot, right behind the Packet
// (sim::PacketPool), so the sites that charge a stage touch the lines the
// packet already occupies and no second per-slot table exists. A freshly
// allocated slot starts untracked; the transport starts tracking at emit.
//
// A packet's life is modeled as contiguous stage segments that partition
// [emitted, delivered]:
//
//   emit --pacing--> wire-start --serialization--> next hop
//        --queueing--> tx-start --serialization--> ... --> delivered
//
// Each instrumentation site calls advance(t, stage), which charges
// `t - mark` to that stage and moves the mark to `t`. Because the mark
// never skips time, pacing + queueing + serialization == delivery_time -
// emitted *exactly*, in integer nanoseconds — the property bench_breakdown
// asserts to within 1 ns after per-message aggregation.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace silo::obs {

enum class Stage : std::uint8_t { kPacing, kQueueing, kSerialization };

struct PacketStages {
  TimeNs emitted {};  ///< transport handed the packet to the host
  TimeNs mark {};     ///< end of the last charged segment
  TimeNs pacing_ns {};
  TimeNs queue_ns {};
  TimeNs serial_ns {};
  bool retransmit = false;
  bool tracked = false;

  /// Start tracking at emit time `now`.
  void on_emit(TimeNs now, bool is_retransmit) {
    *this = PacketStages{now, now, TimeNs{0}, TimeNs{0}, TimeNs{0},
                         is_retransmit, true};
  }

  /// Charge `now - mark` to `stage` and advance the mark. Packets the
  /// simulator never emitted through a transport (hand-built test packets,
  /// voids) are ignored.
  void advance(TimeNs now, Stage stage) {
    if (!tracked) return;
    const TimeNs dt = now - mark;
    if (dt <= TimeNs{0}) return;
    switch (stage) {
      case Stage::kPacing:
        pacing_ns += dt;
        break;
      case Stage::kQueueing:
        queue_ns += dt;
        break;
      case Stage::kSerialization:
        serial_ns += dt;
        break;
    }
    mark = now;
  }
};

}  // namespace silo::obs
