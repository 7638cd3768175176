// IdOrderTest: SortById (the byte-radix sort of a shard's survivors)
// against std::sort by id, on every path it takes — dense ids, ids that
// differ only in their high bytes, random 64-bit ids (the comparison
// fallback) and lists below the radix cutoff — and MergeSortedById (the
// candidate merge) against the sort-and-unique of the concatenated parts.
// Count parts take the same sort and merge keyed by pseudonym: SortById
// against std::sort, MergeSorted against a stable sort of the
// concatenation, repeats kept.

#include "server/id_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "server/object_store.h"
#include "server/public_queries.h"
#include "util/random.h"

namespace cloakdb {
namespace {

namespace io = id_order_internal;

/// Hits with the given ids, in the given order.
std::vector<IndexHit> HitsWithIds(const std::vector<ObjectId>& ids) {
  std::vector<IndexHit> hits;
  for (size_t i = 0; i < ids.size(); ++i)
    hits.push_back({ids[i], {static_cast<double>(i), 0.0}, i});
  return hits;
}

/// Sorts pointers to `hits` (as AnswerPrivate does) and the hits by value
/// with SortById, and holds both to std::sort by id.
void ExpectSortsLikeStdSort(const std::vector<ObjectId>& ids) {
  const std::vector<IndexHit> hits = HitsWithIds(ids);
  std::vector<const IndexHit*> want;
  for (const IndexHit& h : hits) want.push_back(&h);
  std::vector<const IndexHit*> got = want;
  std::sort(want.begin(), want.end(),
            [](const IndexHit* a, const IndexHit* b) { return a->id < b->id; });
  SortById(&got);
  EXPECT_EQ(got, want) << ids.size() << " ids";

  std::vector<IndexHit> values = hits;
  SortById(&values);
  ASSERT_EQ(values.size(), want.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i].id, want[i]->id);
    EXPECT_EQ(values[i].row, want[i]->row);
  }
  EXPECT_LE(io::Scratch().capacity(), io::kScratchKeep);
}

/// `n` distinct ids `base + offset`, offsets a shuffled subset of
/// [0, span).
std::vector<ObjectId> ShuffledIds(size_t n, ObjectId base, uint64_t span,
                                  Rng* rng) {
  std::vector<ObjectId> ids;
  std::vector<uint64_t> offsets;
  for (uint64_t o = 0; o < span; ++o) offsets.push_back(o);
  for (size_t i = 0; i < n; ++i) {
    const size_t j = i + rng->NextBelow(offsets.size() - i);
    std::swap(offsets[i], offsets[j]);
    ids.push_back(base + offsets[i]);
  }
  return ids;
}

TEST(IdOrderTest, RadixMatchesStdSortOnDenseIds) {
  Rng rng(3);
  for (size_t n : {size_t{64}, size_t{65}, size_t{150}, size_t{1000},
                   size_t{20000}}) {
    // One, two and three varying bytes.
    ExpectSortsLikeStdSort(ShuffledIds(n, 1, n, &rng));
    ExpectSortsLikeStdSort(ShuffledIds(std::min<size_t>(n, 256), 0x100, 256,
                                       &rng));
    ExpectSortsLikeStdSort(ShuffledIds(n, 123'456'789, 4 * n, &rng));
    ExpectSortsLikeStdSort(ShuffledIds(n, 0xFF00, 1u << 16, &rng));
  }
}

TEST(IdOrderTest, IdsThatDifferOnlyInTheirHighBytes) {
  Rng rng(5);
  for (size_t n : {size_t{64}, size_t{300}, size_t{5000}}) {
    std::vector<ObjectId> ids;
    for (ObjectId offset : ShuffledIds(n, 0, 1u << 20, &rng))
      ids.push_back((offset << 40) | 0x1234);  // bytes 5..7 vary
    ExpectSortsLikeStdSort(ids);
    std::vector<ObjectId> top;
    for (ObjectId offset : ShuffledIds(n, 0, 1u << 16, &rng))
      top.push_back((offset << 48) | 0xABCDEF);  // bytes 6..7 vary
    ExpectSortsLikeStdSort(top);
  }
}

TEST(IdOrderTest, RandomSixtyFourBitIdsTakeTheFallback) {
  Rng rng(7);
  for (size_t n : {size_t{64}, size_t{500}, size_t{4000}}) {
    std::vector<ObjectId> ids;
    for (size_t i = 0; i < n; ++i) ids.push_back(rng.Next());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::reverse(ids.begin(), ids.end());
    ExpectSortsLikeStdSort(ids);
  }
  // Five varying low bytes: past the radix's limit of three.
  std::vector<ObjectId> wide;
  for (ObjectId offset : ShuffledIds(300, 0, 1u << 16, &rng))
    wide.push_back(offset * 0x01010101u);
  ExpectSortsLikeStdSort(wide);
}

TEST(IdOrderTest, ListsBelowTheCutoff) {
  Rng rng(9);
  for (size_t n = 0; n < io::kRadixMin; n += 7)
    ExpectSortsLikeStdSort(ShuffledIds(n, 40, 2 * n + 1, &rng));
  ExpectSortsLikeStdSort(ShuffledIds(io::kRadixMin - 1, 0, 100, &rng));
}

TEST(IdOrderTest, ConcurrentSortsKeepTheirOwnScratch) {
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&mismatches, t] {
      Rng rng(100 + t);
      for (size_t round = 0; round < 20; ++round) {
        const size_t n = round % 2 == 0 ? 500 : 9000;
        std::vector<IndexHit> hits =
            HitsWithIds(ShuffledIds(n, 1000 * t, 2 * n, &rng));
        SortById(&hits);
        for (size_t i = 1; i < hits.size(); ++i)
          mismatches[t] += hits[i - 1].id < hits[i].id ? 0 : 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
}

PublicObject Obj(ObjectId id) {
  PublicObject o;
  o.id = id;
  o.location = {static_cast<double>(id), 1.0};
  o.category = 3;
  o.name = "poi-" + std::to_string(id);
  return o;
}

/// The merge's reference: the concatenation sorted by id, repeats dropped.
void SortUniqueById(std::vector<PublicObject>* objects) {
  std::sort(objects->begin(), objects->end(),
            [](const PublicObject& a, const PublicObject& b) {
              return a.id < b.id;
            });
  objects->erase(std::unique(objects->begin(), objects->end(),
                             [](const PublicObject& a, const PublicObject& b) {
                               return a.id == b.id;
                             }),
                 objects->end());
}

TEST(IdOrderTest, MergeOfSortedPartsEqualsSortUniqueById) {
  Rng rng(13);
  for (size_t parts : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
    for (int trial = 0; trial < 20; ++trial) {
      // Each part id-sorted and unique; ids repeat across parts (a stripe
      // overlap), and some parts are empty.
      std::vector<std::vector<PublicObject>> lists(parts);
      std::vector<PublicObject> all;
      for (auto& list : lists) {
        const size_t n = trial % 5 == 0 ? 0 : rng.NextBelow(200);
        std::vector<ObjectId> ids = ShuffledIds(n, 1, 4 * n + 1, &rng);
        std::sort(ids.begin(), ids.end());
        for (ObjectId id : ids) list.push_back(Obj(id));
        all.insert(all.end(), list.begin(), list.end());
      }
      SortUniqueById(&all);
      const std::vector<PublicObject> merged =
          MergeSortedById(std::move(lists));
      ASSERT_EQ(merged.size(), all.size()) << parts << " parts";
      for (size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].id, all[i].id);
        EXPECT_EQ(merged[i].name, all[i].name);
        EXPECT_EQ(merged[i].location, all[i].location);
      }
    }
  }
  EXPECT_TRUE(MergeSortedById(std::vector<std::vector<PublicObject>>{})
                  .empty());
}

/// Count contributions with the given pseudonyms; the probability records
/// the position, so a test can tell equal keys apart.
std::vector<CountContribution> Contributions(
    const std::vector<ObjectId>& pseudonyms) {
  std::vector<CountContribution> out;
  for (size_t i = 0; i < pseudonyms.size(); ++i)
    out.push_back({pseudonyms[i], static_cast<double>(i) / 1024.0});
  return out;
}

bool ByPseudonymLess(const CountContribution& a, const CountContribution& b) {
  return a.pseudonym < b.pseudonym;
}

TEST(IdOrderTest, PseudonymKeySortsCountPartsLikeStdSort) {
  Rng rng(17);
  for (size_t n : {size_t{0}, size_t{10}, size_t{64}, size_t{700},
                   size_t{5000}}) {
    std::vector<ObjectId> dense = ShuffledIds(n, 77, 3 * n + 1, &rng);
    std::vector<ObjectId> random;
    for (size_t i = 0; i < n; ++i) random.push_back(rng.Next());
    for (const std::vector<ObjectId>& keys : {dense, random}) {
      std::vector<CountContribution> want = Contributions(keys);
      std::vector<CountContribution> got = want;
      std::sort(want.begin(), want.end(), ByPseudonymLess);
      SortById(&got, ByPseudonym{});
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].pseudonym, want[i].pseudonym);
        EXPECT_EQ(got[i].probability, want[i].probability);
      }
    }
  }
}

TEST(IdOrderTest, MergeSortedIsAStableSortOfTheConcatenation) {
  Rng rng(19);
  for (size_t parts : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                       size_t{7}}) {
    for (int trial = 0; trial < 20; ++trial) {
      // Keys repeat within and across parts; nothing may be dropped.
      std::vector<std::vector<CountContribution>> lists(parts);
      std::vector<CountContribution> want;
      for (auto& list : lists) {
        std::vector<ObjectId> keys;
        const size_t n = trial % 4 == 0 ? 0 : rng.NextBelow(150);
        for (size_t i = 0; i < n; ++i) keys.push_back(rng.NextBelow(60));
        std::sort(keys.begin(), keys.end());
        list = Contributions(keys);
        for (CountContribution& c : list) c.probability += want.size();
        want.insert(want.end(), list.begin(), list.end());
      }
      std::stable_sort(want.begin(), want.end(), ByPseudonymLess);
      const std::vector<CountContribution> got =
          MergeSorted(std::move(lists), ByPseudonym{});
      ASSERT_EQ(got.size(), want.size()) << parts << " parts";
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].pseudonym, want[i].pseudonym);
        EXPECT_EQ(got[i].probability, want[i].probability);
      }
    }
  }
}

}  // namespace
}  // namespace cloakdb
