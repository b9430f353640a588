#include "core/journal.h"

#include <cstring>
#include <stdexcept>

#include "util/fnv.h"

namespace silo {
namespace {

// "SILOJRN1" little-endian; no dots so the docs metric grep ignores it.
constexpr std::uint64_t kMagic = 0x314e524a4f4c4953ull;
// v2: lease payload on every record + lease state in snapshots.
// v3: the snapshot is its global fields followed by its keyed tenant
// entries, and the chain mixes in a digest folded from per-entry digests.
// v4: a controller tenant entry holds no placement (its engine entry
// does), and a record's chain value hashes the record's encoded bytes.
constexpr std::uint32_t kVersion = 4;

std::uint64_t double_bits(double d) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// ------------------------------------------------------------- byte codec

/// Byte sinks for the codec. StringSink keeps the bytes (serialize);
/// FnvSink folds them into FNV-1a (record chain values, snapshot entry
/// digests), so a hash is by construction over exactly the bytes
/// serialize writes.
struct StringSink {
  std::string bytes;
  void put(std::uint8_t b) { bytes.push_back(static_cast<char>(b)); }
};

struct FnvSink {
  std::uint64_t h = kFnvTruncatedBasis;
  void put(std::uint8_t b) {
    h ^= b;
    h *= kFnvPrime;
  }
};

template <class Sink>
class ByteWriter {
 public:
  void u8(std::uint8_t v) { sink.put(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(double_bits(v)); }
  void ints(const std::vector<int>& v) {
    u64(v.size());
    for (const int x : v) i32(x);
  }

  Sink sink;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}
  std::uint8_t u8() {
    if (pos_ >= bytes_.size())
      throw std::runtime_error("journal corrupt: truncated");
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }
  std::vector<int> ints() {
    const std::uint64_t n = count();
    std::vector<int> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(i32());
    return v;
  }
  /// Element count with a sanity bound: every element costs >= 1 byte, so
  /// a count beyond the remaining bytes is corruption, not allocation bait.
  std::uint64_t count() {
    const std::uint64_t n = u64();
    if (n > bytes_.size() - pos_ + 1)
      throw std::runtime_error("journal corrupt: implausible count");
    return n;
  }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

template <class W>
void write_request(W& w, const TenantRequest& req) {
  w.i32(req.num_vms);
  w.f64(req.guarantee.bandwidth.bps());
  w.i64(req.guarantee.burst.count());
  w.i64(req.guarantee.delay.count());
  w.f64(req.guarantee.burst_rate.bps());
  w.u8(static_cast<std::uint8_t>(req.tenant_class));
  w.i32(req.min_fault_domains);
}

TenantRequest read_request(ByteReader& r) {
  TenantRequest req;
  req.num_vms = r.i32();
  req.guarantee.bandwidth = RateBps{r.f64()};
  req.guarantee.burst = Bytes{r.i64()};
  req.guarantee.delay = TimeNs{r.i64()};
  req.guarantee.burst_rate = RateBps{r.f64()};
  req.tenant_class = static_cast<TenantClass>(r.u8());
  req.min_fault_domains = r.i32();
  return req;
}

bool lease_op(JournalOp op) {
  return op == JournalOp::kLeaseGrant || op == JournalOp::kLeaseRevoke ||
         op == JournalOp::kLeaseEpoch;
}

template <class W>
void write_lease(W& w, const PacerLeaseRecord& l) {
  w.u64(l.id);
  w.i64(l.owner);
  w.i64(l.borrower);
  w.i32(l.vm_index);
  w.i32(l.server);
  w.f64(l.rate.bps());
  w.u64(l.issued_epoch);
  w.u64(l.expiry_epoch);
}

PacerLeaseRecord read_lease(ByteReader& r) {
  PacerLeaseRecord l;
  l.id = r.u64();
  l.owner = r.i64();
  l.borrower = r.i64();
  l.vm_index = r.i32();
  l.server = r.i32();
  l.rate = RateBps{r.f64()};
  l.issued_epoch = r.u64();
  l.expiry_epoch = r.u64();
  return l;
}

// The record codec. write_record emits the bytes a record's chain value
// hashes; the blob follows them with the chain value, and read_record
// reads both back.

template <class W>
void write_record(W& w, const JournalRecord& rec) {
  w.u8(static_cast<std::uint8_t>(rec.op));
  write_request(w, rec.request);
  w.i64(rec.tenant);
  w.i32(rec.server);
  w.i32(rec.port);
  // Lease payload only for lease ops: the other ops leave it at its
  // defaults, so no byte of the blob lies outside the chain.
  if (lease_op(rec.op)) write_lease(w, rec.lease);
}

JournalRecord read_record(ByteReader& r) {
  JournalRecord rec;
  rec.op = static_cast<JournalOp>(r.u8());
  rec.request = read_request(r);
  rec.tenant = r.i64();
  rec.server = r.i32();
  rec.port = r.i32();
  if (lease_op(rec.op)) rec.lease = read_lease(r);
  rec.chain = r.u64();
  return rec;
}

/// FNV-1a over the bytes write_record emits, seeded with the previous
/// chain head.
std::uint64_t record_chain(std::uint64_t prev, const JournalRecord& rec) {
  ByteWriter<FnvSink> w;
  w.sink.h = prev;
  write_record(w, rec);
  return w.sink.h;
}

// The snapshot codec: one write_snapshot/read_snapshot overload per part.
// The two tenant lists are keyed entries — each encoded (and digested) on
// its own — so the ControllerSnapshot overload covers everything else.

template <class W>
void write_snapshot(W& w, const placement::EngineSnapshot::Tenant& t) {
  w.i64(t.id);
  write_request(w, t.request);
  w.ints(t.vm_to_server);
  w.u64(t.contributions.size());
  for (const auto& [port, c] : t.contributions) {
    w.i32(port);
    w.f64(c.rate_bps);
    w.f64(c.burst_bytes);
    w.f64(c.burst_rate_bps);
    w.f64(c.jump_bytes);
  }
}

void read_snapshot(ByteReader& r, placement::EngineSnapshot::Tenant& t) {
  t.id = r.i64();
  t.request = read_request(r);
  t.vm_to_server = r.ints();
  const std::uint64_t n_contrib = r.count();
  for (std::uint64_t j = 0; j < n_contrib; ++j) {
    const int port = r.i32();
    placement::PortContribution c;
    c.rate_bps = r.f64();
    c.burst_bytes = r.f64();
    c.burst_rate_bps = r.f64();
    c.jump_bytes = r.f64();
    t.contributions.emplace_back(port, c);
  }
}

template <class W>
void write_snapshot(W& w, const ControllerSnapshot::Tenant& t) {
  w.i64(t.id);
  write_request(w, t.request);
  w.u8(t.status);
  w.i64(t.engine_id);
}

void read_snapshot(ByteReader& r, ControllerSnapshot::Tenant& t) {
  t.id = r.i64();
  t.request = read_request(r);
  t.status = r.u8();
  t.engine_id = r.i64();
}

template <class W>
void write_snapshot(W& w, const ControllerSnapshot& snap) {
  w.u64(snap.engine.failed_servers.size());
  for (const auto& f : snap.engine.failed_servers) {
    w.i32(f.server);
    w.i32(f.free_slots);
    w.i32(f.quarantined);
  }
  w.ints(snap.engine.failed_ports);
  w.i64(snap.engine.next_id);
  w.u64(snap.counters.size());
  for (const std::int64_t c : snap.counters) w.i64(c);
  w.u64(snap.lease_epoch);
  w.u64(snap.next_lease_id);
  w.u64(snap.leases.size());
  for (const auto& l : snap.leases) write_lease(w, l);
}

void read_snapshot(ByteReader& r, ControllerSnapshot& snap) {
  const std::uint64_t n_failed = r.count();
  for (std::uint64_t i = 0; i < n_failed; ++i) {
    placement::EngineSnapshot::FailedServer f;
    f.server = r.i32();
    f.free_slots = r.i32();
    f.quarantined = r.i32();
    snap.engine.failed_servers.push_back(f);
  }
  snap.engine.failed_ports = r.ints();
  snap.engine.next_id = r.i64();
  const std::uint64_t n_counters = r.count();
  for (std::uint64_t i = 0; i < n_counters; ++i)
    snap.counters.push_back(r.i64());
  snap.lease_epoch = r.u64();
  snap.next_lease_id = r.u64();
  const std::uint64_t n_leases = r.count();
  for (std::uint64_t i = 0; i < n_leases; ++i)
    snap.leases.push_back(read_lease(r));
}

/// FNV-1a over the bytes write_snapshot emits for `part`.
template <class T>
std::uint64_t digest_of(const T& part) {
  ByteWriter<FnvSink> w;
  write_snapshot(w, part);
  return w.sink.h;
}

/// Upsert one entry into a retained map, keeping its digest sum current.
template <class Map, class T>
void put_entry(Map& map, std::uint64_t& sum, T value) {
  const std::uint64_t d = digest_of(value);
  auto [it, inserted] = map.try_emplace(value.id);
  if (!inserted) sum -= it->second.digest;
  it->second.value = std::move(value);
  it->second.digest = d;
  sum += d;
}

/// Erase one entry; returns whether it was there.
template <class Map>
bool erase_entry(Map& map, std::uint64_t& sum, std::int64_t id) {
  const auto it = map.find(id);
  if (it == map.end()) return false;
  sum -= it->second.digest;
  map.erase(it);
  return true;
}

/// Write a retained map's entries (count, then ascending id).
template <class W, class Map>
void write_entries(W& w, const Map& map) {
  w.u64(map.size());
  for (const auto& [id, e] : map) write_snapshot(w, e.value);
}

/// Read entries written by write_entries; ids must strictly ascend, so
/// the encoding of a retained snapshot is canonical.
template <class T, class Map>
void read_entries(ByteReader& r, Map& map, std::uint64_t& sum) {
  const std::uint64_t n = r.count();
  for (std::uint64_t i = 0; i < n; ++i) {
    T value;
    read_snapshot(r, value);
    if (!map.empty() && value.id <= map.rbegin()->first)
      throw std::runtime_error("journal corrupt: snapshot ids out of order");
    put_entry(map, sum, std::move(value));
  }
}

}  // namespace

DeltaJournal::DeltaJournal()
    : pre_snapshot_chain_(kFnvTruncatedBasis), chain_(kFnvTruncatedBasis) {
  m_appends_ = metrics_.counter("controller.journal.appends", "records",
                                "journal");
  m_snapshots_ = metrics_.counter("controller.journal.snapshots", "snapshots",
                                  "journal");
  m_compacted_entries_ = metrics_.counter(
      "controller.journal.compacted_entries", "entries", "journal");
  m_replays_ = metrics_.counter("controller.journal.replays", "recoveries",
                                "journal");
  m_replayed_records_ = metrics_.counter("controller.journal.replayed_records",
                                         "records", "journal");
}

std::uint64_t DeltaJournal::append(JournalRecord rec) {
  chain_ = record_chain(chain_, rec);
  rec.chain = chain_;
  records_.push_back(std::move(rec));
  m_appends_.inc();
  return chain_;
}

void DeltaJournal::compact(ControllerSnapshot snapshot) {
  // A full snapshot replaces the retained one: every entry is "changed".
  SnapshotDelta all;
  all.tenants = std::move(snapshot.tenants);
  all.engine_tenants = std::move(snapshot.engine.tenants);
  snapshot.tenants.clear();
  snapshot.engine.tenants.clear();
  all.globals = std::move(snapshot);
  retained_.reset();
  compact(std::move(all));
}

void DeltaJournal::compact(SnapshotDelta delta) {
  if (!retained_) retained_.emplace();
  Retained& r = *retained_;
  std::int64_t entries = 0;
  for (const auto id : delta.erased_tenants)
    entries += erase_entry(r.tenants, r.tenant_sum, id);
  for (const auto id : delta.erased_engine_tenants)
    entries += erase_entry(r.engine_tenants, r.engine_sum, id);
  for (auto& t : delta.tenants)
    put_entry(r.tenants, r.tenant_sum, std::move(t));
  for (auto& t : delta.engine_tenants)
    put_entry(r.engine_tenants, r.engine_sum, std::move(t));
  entries += static_cast<std::int64_t>(delta.tenants.size() +
                                       delta.engine_tenants.size());
  r.globals = std::move(delta.globals);
  r.globals_digest = digest_of(r.globals);
  // pre_snapshot_chain_ becomes the current head (which already covers
  // every record being dropped), then the snapshot digest folds on top —
  // the chain stays continuous across any number of compactions.
  pre_snapshot_chain_ = chain_;
  chain_ = fnv1a_word(chain_, digest(r, /*rehash=*/false));
  records_.clear();
  m_snapshots_.inc();
  m_compacted_entries_.inc(entries);
}

ControllerSnapshot DeltaJournal::snapshot() const {
  ControllerSnapshot snap = retained_->globals;
  snap.engine.tenants.reserve(retained_->engine_tenants.size());
  for (const auto& [id, e] : retained_->engine_tenants)
    snap.engine.tenants.push_back(e.value);
  snap.tenants.reserve(retained_->tenants.size());
  for (const auto& [id, e] : retained_->tenants)
    snap.tenants.push_back(e.value);
  return snap;
}

std::uint64_t DeltaJournal::digest(const Retained& r, bool rehash) {
  std::uint64_t globals = r.globals_digest;
  std::uint64_t engine_sum = r.engine_sum;
  std::uint64_t tenant_sum = r.tenant_sum;
  if (rehash) {
    globals = digest_of(r.globals);
    engine_sum = tenant_sum = 0;
    for (const auto& [id, e] : r.engine_tenants)
      engine_sum += digest_of(e.value);
    for (const auto& [id, e] : r.tenants) tenant_sum += digest_of(e.value);
  }
  // Entry digests combine by sum (order-free, so one entry's change is an
  // O(1) update); the counts and the canonical ascending-id encoding keep
  // the fold unambiguous.
  std::uint64_t h = kFnvTruncatedBasis;
  h = fnv1a_word(h, globals);
  h = fnv1a_word(h, r.engine_tenants.size());
  h = fnv1a_word(h, engine_sum);
  h = fnv1a_word(h, r.tenants.size());
  h = fnv1a_word(h, tenant_sum);
  return h;
}

bool DeltaJournal::chain_holds(std::uint64_t snapshot_digest) const {
  std::uint64_t h = pre_snapshot_chain_;
  if (retained_) h = fnv1a_word(h, snapshot_digest);
  for (const auto& rec : records_) {
    h = record_chain(h, rec);
    if (h != rec.chain) return false;
  }
  return h == chain_;
}

bool DeltaJournal::verify() const {
  return chain_holds(retained_ ? digest(*retained_, /*rehash=*/true) : 0);
}

std::string DeltaJournal::serialize() const {
  ByteWriter<StringSink> w;
  w.u64(kMagic);
  w.u32(kVersion);
  w.i64(m_appends_.value());
  w.i64(m_snapshots_.value());
  w.i64(m_compacted_entries_.value());
  w.i64(m_replays_.value());
  w.i64(m_replayed_records_.value());
  w.u64(pre_snapshot_chain_);
  w.u8(retained_ ? 1 : 0);
  if (retained_) {
    write_snapshot(w, retained_->globals);
    write_entries(w, retained_->engine_tenants);
    write_entries(w, retained_->tenants);
  }
  w.u64(records_.size());
  for (const auto& rec : records_) {
    write_record(w, rec);
    w.u64(rec.chain);
  }
  w.u64(chain_);
  return std::move(w.sink.bytes);
}

DeltaJournal DeltaJournal::deserialize(const std::string& bytes) {
  ByteReader r(bytes);
  if (r.u64() != kMagic) throw std::runtime_error("journal corrupt: bad magic");
  if (r.u32() != kVersion)
    throw std::runtime_error("journal corrupt: unknown version");
  DeltaJournal j;
  j.m_appends_.inc(r.i64());
  j.m_snapshots_.inc(r.i64());
  j.m_compacted_entries_.inc(r.i64());
  j.m_replays_.inc(r.i64());
  j.m_replayed_records_.inc(r.i64());
  j.pre_snapshot_chain_ = r.u64();
  if (r.u8() != 0) {
    Retained& ret = j.retained_.emplace();
    read_snapshot(r, ret.globals);
    ret.globals_digest = digest_of(ret.globals);
    read_entries<placement::EngineSnapshot::Tenant>(r, ret.engine_tenants,
                                                    ret.engine_sum);
    read_entries<ControllerSnapshot::Tenant>(r, ret.tenants, ret.tenant_sum);
  }
  const std::uint64_t n = r.count();
  for (std::uint64_t i = 0; i < n; ++i) j.records_.push_back(read_record(r));
  j.chain_ = r.u64();
  if (!r.done()) throw std::runtime_error("journal corrupt: trailing bytes");
  // The entry digests were just computed from the bytes read, so the
  // cached fold is as strong as verify()'s re-hash here.
  if (!j.chain_holds(
          j.retained_ ? digest(*j.retained_, /*rehash=*/false) : 0))
    throw std::runtime_error("journal corrupt: chain checksum mismatch");
  return j;
}

void DeltaJournal::note_replay(std::int64_t replayed_records) {
  m_replays_.inc();
  m_replayed_records_.inc(replayed_records);
}

}  // namespace silo
