// Per-op check for journaled controllers: whenever the journal compacted
// since the previous call, its retained snapshot must equal the
// controller's snapshot() field for field and the chain must verify. Delta
// compaction folds only changed entries into the retained snapshot, so
// this pins "retained snapshot + changed entries == snapshot()".
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "core/controller.h"
#include "core/journal.h"

namespace silo {

class CompactionCheck {
 public:
  explicit CompactionCheck(const DeltaJournal& journal)
      : journal_(journal), seen_(compactions()) {}

  /// Call after every controller op: a compaction captures the state right
  /// after the op that triggered it. (The journal may have been replaced by
  /// a deserialized copy in between; its counters carry over.)
  void operator()(const SiloController& ctl) {
    if (compactions() == seen_) return;
    seen_ = compactions();
    ++checked_;
    EXPECT_TRUE(journal_.verify());
    const ControllerSnapshot kept = journal_.snapshot();
    const ControllerSnapshot want = ctl.snapshot();
    EXPECT_TRUE(kept.engine == want.engine) << "engine, compaction " << seen_;
    EXPECT_TRUE(kept.tenants == want.tenants)
        << "tenants, compaction " << seen_;
    EXPECT_EQ(kept.counters, want.counters) << "compaction " << seen_;
    EXPECT_TRUE(kept.leases == want.leases) << "compaction " << seen_;
    EXPECT_EQ(kept.lease_epoch, want.lease_epoch);
    EXPECT_EQ(kept.next_lease_id, want.next_lease_id);
    EXPECT_TRUE(kept == want);
  }

  /// Compactions checked so far.
  int checked() const { return checked_; }

 private:
  std::int64_t compactions() const {
    return journal_.metrics().value("controller.journal.snapshots");
  }

  const DeltaJournal& journal_;
  std::int64_t seen_;
  int checked_ = 0;
};

}  // namespace silo
