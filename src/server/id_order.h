// Id order for private answers: every candidate list leaves the server
// sorted by object id, whatever order the index produced it in and however
// many shards contributed, so one answer has one byte form.
//
// SortById sorts each shard's part where the shard makes it (survivors,
// standing-fetch hits, and count contributions keyed by pseudonym). Ids in
// a cloak's reach are usually dense, differing only in their low two or
// three bytes: an LSD byte radix over just those bytes, on packed (digits,
// position) keys, reads each id once and never chases a pointer. Every
// fan-in then merges sorted parts (MergeSorted) instead of re-sorting.

#ifndef CLOAKDB_SERVER_ID_ORDER_H_
#define CLOAKDB_SERVER_ID_ORDER_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "server/dominance.h"

namespace cloakdb {

namespace id_order_internal {

/// Lists shorter than this take std::sort: clearing and summing the
/// 256-bucket counts would cost more than the comparisons saved.
inline constexpr size_t kRadixMin = 64;

/// Most id bytes the radix passes over; more take std::sort.
inline constexpr size_t kMaxPasses = 3;

/// Keys a thread keeps between calls: two buffers of 8,192 (128 KB). A
/// call over a longer list frees its scratch on return.
inline constexpr size_t kScratchKeep = size_t{1} << 14;

/// Per-thread scratch: the packed keys and the buffer each pass writes.
inline std::vector<uint64_t>& Scratch() {
  thread_local std::vector<uint64_t> scratch;
  return scratch;
}

}  // namespace id_order_internal

/// The default key: the id of a hit or object, by value or by pointer.
struct ById {
  template <typename T>
  uint64_t operator()(const T& t) const { return HitOf(t).id; }
};

/// Sorts `items` by `id(item)`, a 64-bit key (ById by default), into the
/// order std::sort by that key gives when the keys are distinct. An LSD
/// byte radix over the key bytes that vary within the list; a list shorter
/// than kRadixMin, or whose keys vary in more than kMaxPasses bytes, takes
/// std::sort.
template <typename T, typename Key = ById>
void SortById(std::vector<T>* items, Key id = {}) {
  namespace io = id_order_internal;
  const size_t n = items->size();
  const auto comparison_sort = [&] {
    std::sort(items->begin(), items->end(),
              [&](const T& a, const T& b) { return id(a) < id(b); });
  };
  if (n < io::kRadixMin || n > std::numeric_limits<uint32_t>::max())
    return comparison_sort();
  // The bytes in which some id differs from the first.
  const uint64_t first = id(items->front());
  uint64_t varying = 0;
  for (const T& t : *items) varying |= id(t) ^ first;
  std::array<unsigned, io::kMaxPasses> shifts{};
  size_t passes = 0;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    if (passes == io::kMaxPasses) return comparison_sort();
    shifts[passes++] = shift;
  }
  // Key i: varying byte d of the id at bits 32 + 8d, position i below.
  std::vector<uint64_t>& scratch = io::Scratch();
  scratch.resize(2 * n);
  uint64_t* keys = scratch.data();
  uint64_t* next = keys + n;
  std::array<std::array<uint32_t, 256>, io::kMaxPasses> counts{};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = id((*items)[i]);
    uint64_t key = i;
    for (size_t d = 0; d < passes; ++d) {
      const uint64_t digit = (v >> shifts[d]) & 0xff;
      ++counts[d][digit];
      key |= digit << (32 + 8 * d);
    }
    keys[i] = key;
  }
  // One stable counting pass per varying byte, least significant first.
  for (size_t d = 0; d < passes; ++d) {
    uint32_t offset = 0;
    for (uint32_t& c : counts[d]) {
      const uint32_t bucket = c;
      c = offset;
      offset += bucket;
    }
    const unsigned shift = 32 + 8 * static_cast<unsigned>(d);
    for (size_t i = 0; i < n; ++i)
      next[counts[d][(keys[i] >> shift) & 0xff]++] = keys[i];
    std::swap(keys, next);
  }
  std::vector<T> sorted;
  sorted.reserve(n);
  for (size_t i = 0; i < n; ++i)
    sorted.push_back(std::move((*items)[keys[i] & 0xffffffffu]));
  *items = std::move(sorted);
  if (scratch.capacity() > io::kScratchKeep)
    std::vector<uint64_t>().swap(scratch);
}

/// Lists each sorted by `key`, merged into one sorted by `key`: neighbour
/// with neighbour, each merge linear and stable (among equal keys the
/// earlier list's element comes first). One list comes back as it is.
template <typename T, typename Key>
std::vector<T> MergeSorted(std::vector<std::vector<T>> lists, Key key) {
  if (lists.empty()) return {};
  const auto by_key = [&](const T& a, const T& b) { return key(a) < key(b); };
  for (size_t width = 1; width < lists.size(); width *= 2) {
    for (size_t i = 0; i + width < lists.size(); i += 2 * width) {
      std::vector<T>& a = lists[i];
      std::vector<T>& b = lists[i + width];
      std::vector<T> both;
      both.reserve(a.size() + b.size());
      std::merge(std::make_move_iterator(a.begin()),
                 std::make_move_iterator(a.end()),
                 std::make_move_iterator(b.begin()),
                 std::make_move_iterator(b.end()), std::back_inserter(both),
                 by_key);
      a = std::move(both);
    }
  }
  return std::move(lists.front());
}

/// The union of id-sorted lists: MergeSorted by id, then repeated ids
/// dropped (the element of the earlier list stays).
template <typename T>
std::vector<T> MergeSortedById(std::vector<std::vector<T>> lists) {
  std::vector<T> out = MergeSorted(std::move(lists), ById{});
  out.erase(std::unique(out.begin(), out.end(),
                        [](const T& a, const T& b) { return a.id == b.id; }),
            out.end());
  return out;
}

}  // namespace cloakdb

#endif  // CLOAKDB_SERVER_ID_ORDER_H_
