// Storage layer of the privacy-aware location-based database server
// (paper Section 6.1).
//
// Two tables:
//   - public data: exact locations of objects that do not hide themselves
//     (gas stations, restaurants, police cars, ...), organized per category
//     in R-trees;
//   - private data: mobile users known *only* by pseudonym and cloaked
//     rectangle — the server never stores an exact private location.

#ifndef CLOAKDB_SERVER_OBJECT_STORE_H_
#define CLOAKDB_SERVER_OBJECT_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "index/public_index.h"
#include "index/rect_grid.h"
#include "index/rtree.h"
#include "util/byte_codec.h"
#include "util/status.h"

namespace cloakdb {

/// Category tag for public objects (gas station, restaurant, ...).
using Category = uint32_t;

/// A public (exact-location) object.
struct PublicObject {
  ObjectId id = 0;
  Point location;
  Category category = 0;
  std::string name;
};

/// InvalidArgument unless the location is finite and the name fits
/// util::kMaxStringBytes (the cap every reader of a name enforces).
Status CheckPublicObject(const PublicObject& object);

/// InvalidArgument unless every object passes CheckPublicObject, every id
/// appears once, and the objects encode to at most `max_bytes`
/// (PublicObjectBytes summed): BulkLoadCategory's batch checks, for
/// callers that split a batch. The service passes the room one WAL record
/// leaves, so an accepted batch can always be logged.
Status CheckPublicBatch(const std::vector<PublicObject>& objects,
                        size_t max_bytes = SIZE_MAX);

// --- Byte encoding shared by wire candidates, WAL records and snapshots ---

/// Four f64: min_x, min_y, max_x, max_y.
void WriteRect(util::ByteWriter* w, const Rect& rect);
Rect ReadRect(util::ByteReader* r);

/// u64 id, f64 x, f64 y, u32 category, u32-length name.
void WritePublicObject(util::ByteWriter* w, const PublicObject& object);
PublicObject ReadPublicObject(util::ByteReader* r);

/// Bytes WritePublicObject appends for `object` (at least
/// kMinPublicObjectBytes: the fixed fields plus the name length).
size_t PublicObjectBytes(const PublicObject& object);
inline constexpr size_t kMinPublicObjectBytes = 32;

/// The server's data storage: public exact objects + private cloaked
/// regions.
class ObjectStore {
 public:
  /// `space` bounds the private-region index; public objects may lie
  /// anywhere (at finite coordinates). `public_index` configures each
  /// category's sealed StaticRTree + overlay (compaction limit, counters).
  explicit ObjectStore(const Rect& space, uint32_t rect_grid_cells = 64,
                       const PublicCategoryIndex::Config& public_index = {});

  // --- Public data -------------------------------------------------------

  /// Adds one public object (duplicate ids across *all* categories fail
  /// with AlreadyExists; CheckPublicObject failures with InvalidArgument).
  Status AddPublicObject(const PublicObject& object);

  /// The checks AddPublicObject runs before it changes anything — lets a
  /// durable caller refuse a write before logging it.
  Status CheckAdd(const PublicObject& object) const;

  /// Removes a public object by id.
  Status RemovePublicObject(ObjectId id);

  /// Moves a public moving object (e.g. a police car). A non-finite
  /// location fails with InvalidArgument.
  Status MovePublicObject(ObjectId id, const Point& new_location);

  /// Bulk-loads a category in one STR build (replaces that category). A
  /// batch CheckPublicBatch rejects, or an id stored under another
  /// category, fails and leaves the store unchanged.
  Status BulkLoadCategory(Category category, std::vector<PublicObject> objects);

  /// AlreadyExists when an id in `objects` is stored under a category
  /// other than `category` — the check a category replacement runs before
  /// it changes anything.
  Status CheckCategoryIds(Category category,
                          const std::vector<PublicObject>& objects) const;

  /// Replaces a category with a pre-built sealed StaticRTree (recovery
  /// fast path: the tree usually points into an mmap'd sidecar). The tree
  /// is verified entry-by-entry against `objects` — the authoritative set
  /// from the checkpoint; divergence that AdoptSealed cannot reconcile
  /// fails and leaves the store unchanged (caller falls back to
  /// BulkLoadCategory).
  Status AdoptCategorySealed(Category category, StaticRTree sealed,
                             const std::vector<PublicObject>& objects);

  /// Full object record by id.
  Result<PublicObject> GetPublicObject(ObjectId id) const;

  /// The index of one category; fails when the category has no objects.
  Result<const PublicCategoryIndex*> CategoryIndex(Category category) const;

  /// Mutable access for the service layer's checkpoint-time compaction.
  PublicCategoryIndex* MutableCategoryIndex(Category category);

  /// All categories currently populated.
  std::vector<Category> Categories() const;

  size_t num_public() const { return public_meta_.size(); }

  /// Every public object across all categories, sorted by id — the
  /// deterministic enumeration the checkpoint writer serializes.
  std::vector<PublicObject> AllPublicObjects() const;

  // --- Private data ------------------------------------------------------

  /// Inserts or replaces the cloaked region of a pseudonym.
  Status UpsertPrivateRegion(ObjectId pseudonym, const Rect& region);

  /// Drops a pseudonym's region (user went passive).
  Status RemovePrivateRegion(ObjectId pseudonym);

  /// The stored region of a pseudonym.
  Result<Rect> GetPrivateRegion(ObjectId pseudonym) const;

  /// Read access to the cloaked-region index.
  const RectGrid& private_index() const { return private_index_; }

  size_t num_private() const { return private_index_.size(); }

  /// Every (pseudonym, region) pair, sorted by pseudonym — deterministic
  /// enumeration for the checkpoint writer.
  std::vector<std::pair<ObjectId, Rect>> AllPrivateRegions() const;

  const Rect& space() const { return space_; }

 private:
  /// Shared tail of BulkLoadCategory / AdoptCategorySealed, run once
  /// `index` is built and verified: cross-category id check, then swap in
  /// the index and the category's metadata.
  Status ReplaceCategory(Category category, PublicCategoryIndex index,
                         std::vector<PublicObject> objects);

  Rect space_;
  PublicCategoryIndex::Config public_index_;
  std::map<Category, PublicCategoryIndex> public_indexes_;
  std::unordered_map<ObjectId, PublicObject> public_meta_;
  RectGrid private_index_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_SERVER_OBJECT_STORE_H_
