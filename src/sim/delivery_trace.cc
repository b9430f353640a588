#include "sim/delivery_trace.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace silo::sim {

std::uint64_t fold_record(std::uint64_t h, const DeliveryRecord& r) {
  h = fnv1a_word(h, static_cast<std::uint64_t>(r.at_ns));
  h = fnv1a_word(h, static_cast<std::uint64_t>(r.src_vm));
  h = fnv1a_word(h, static_cast<std::uint64_t>(r.dst_vm));
  h = fnv1a_word(h, static_cast<std::uint64_t>(r.seq));
  h = fnv1a_word(h, static_cast<std::uint64_t>(r.ack_seq));
  h = fnv1a_word(h, static_cast<std::uint64_t>(std::int64_t{r.payload}));
  h = fnv1a_word(h, r.flags);
  return h;
}

std::uint64_t canonical_trace_checksum(
    std::span<const DeliveryTrace* const> traces) {
  // Each trace is in nondecreasing `at`, so a k-way merge by `at` (a heap
  // of cursors) visits the union in `at` order. Sorting each equal-`at`
  // group by the rest of the tuple then yields exactly the order of a sort
  // of the whole union, without copying it.
  struct Cursor {
    DeliveryTrace::const_iterator it, end;
    bool valid() const { return it != end; }
  };
  std::vector<Cursor> cursors;
  std::vector<std::pair<std::int64_t, std::size_t>> heap;  // (at, cursor)
  const auto later = [](const auto& a, const auto& b) { return a > b; };
  for (const DeliveryTrace* t : traces) {
    if (t->empty()) continue;
    heap.emplace_back(t->front().at_ns, cursors.size());
    cursors.push_back({t->begin(), t->end()});
  }
  std::make_heap(heap.begin(), heap.end(), later);

  const auto rest_less = [](const DeliveryRecord* a, const DeliveryRecord* b) {
    return std::tie(a->src_vm, a->dst_vm, a->seq, a->ack_seq, a->payload,
                    a->flags) < std::tie(b->src_vm, b->dst_vm, b->seq,
                                         b->ack_seq, b->payload, b->flags);
  };
  std::vector<const DeliveryRecord*> group;
  std::uint64_t h = kFnvOffsetBasis;
  while (!heap.empty()) {
    const std::int64_t at = heap.front().first;
    group.clear();
    while (!heap.empty() && heap.front().first == at) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Cursor& c = cursors[heap.back().second];
      for (; c.valid() && c.it->at_ns == at; ++c.it) group.push_back(&*c.it);
      if (c.valid() && c.it->at_ns < at)
        throw std::logic_error("DeliveryTrace: records out of time order");
      if (c.valid()) {
        heap.back().first = c.it->at_ns;
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        heap.pop_back();
      }
    }
    std::sort(group.begin(), group.end(), rest_less);
    for (const DeliveryRecord* r : group) h = fold_record(h, *r);
  }
  return h;
}

}  // namespace silo::sim
