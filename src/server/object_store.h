// Storage layer of the privacy-aware location-based database server
// (paper Section 6.1).
//
// Two tables:
//   - public data: exact locations of objects that do not hide themselves
//     (gas stations, restaurants, police cars, ...). Each category has a
//     PublicCategoryIndex (a sealed StaticRTree plus a bounded spill) and a
//     record table laid out by the index's rows: row i of the sealed part
//     is leaf slot i. An index hit carries its row, so the Fig. 5
//     candidate list copies records with no lookup per candidate. There is
//     no id map: an id is found through the sealed tree's sorted id
//     directory or the spill, one category after another;
//   - private data: mobile users known *only* by pseudonym and cloaked
//     rectangle — the server never stores an exact private location.

#ifndef CLOAKDB_SERVER_OBJECT_STORE_H_
#define CLOAKDB_SERVER_OBJECT_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "index/public_index.h"
#include "index/rect_grid.h"
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
  /// Costs one id search per category. A durable caller passes `log`: it
  /// runs once the checks pass and before the store changes, so a write the
  /// store rejects is never logged; when `log` fails the store is unchanged
  /// and the call returns its status.
  Status AddPublicObject(const PublicObject& object,
                         const std::function<Status()>& log = {});

  /// Removes a public object by id.
  Status RemovePublicObject(ObjectId id);

  /// Moves a public moving object (e.g. a police car). A non-finite
  /// location fails with InvalidArgument.
  Status MovePublicObject(ObjectId id, const Point& new_location);

  /// Bulk-loads a category in one STR build (replaces that category). A
  /// batch CheckPublicBatch rejects, or an id stored under another
  /// category, fails and leaves the store unchanged. `log` runs as in
  /// AddPublicObject, after the build and every check.
  Status BulkLoadCategory(Category category, std::vector<PublicObject> objects,
                          const std::function<Status()>& log = {});

  /// Full object record by id: an id search per category (sealed id
  /// directory, then the spill) until one holds it. Not on the query path,
  /// which reads records by row (CategoryTable).
  Result<PublicObject> GetPublicObject(ObjectId id) const;

  /// The index of one category; fails when the category has no objects.
  Result<const PublicCategoryIndex*> CategoryIndex(Category category) const;

  /// One category: its index and the records in index-row order.
  struct PublicTable {
    explicit PublicTable(const PublicCategoryIndex::Config& config)
        : index(config) {}
    PublicCategoryIndex index;
    std::vector<PublicObject> rows;  ///< rows[r]: the record of row r
    std::vector<bool> live;          ///< rows[r] holds a stored object
  };

  /// The record table of one category: rows[r] is the record of the index
  /// entry whose hits carry row r (index/public_index.h) when live[r] is
  /// set. Rows hold until the index's seal_generation changes. Fails when
  /// the category has no objects.
  Result<const PublicTable*> CategoryTable(Category category) const;

  size_t num_public() const;

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
  /// Where a stored id lives.
  struct StoredRow {
    Category category;
    uint64_t row;
  };
  std::optional<StoredRow> FindRow(ObjectId id) const;

  /// The checks AddPublicObject runs before it changes anything.
  Status CheckAdd(const PublicObject& object) const;
  /// AlreadyExists when an id in `objects` is stored under a category
  /// other than `category`: one id-directory search per object and one
  /// pass over the spill, per other category.
  Status CheckCategoryIds(Category category,
                          const std::vector<PublicObject>& objects) const;

  /// Swaps in a built and checked `table`; an empty one drops the category.
  void InstallCategory(Category category, PublicTable table);

  /// Runs one index mutation, then re-lays the rows when it renumbered
  /// them (an inline compaction).
  template <typename Mutation>
  static Status MutateIndex(PublicTable* table, Mutation&& mutation);
  /// Stores `object` at its index row.
  static void PutRow(PublicTable* table, PublicObject object);

  Rect space_;
  PublicCategoryIndex::Config public_index_;
  std::map<Category, PublicTable> public_tables_;
  RectGrid private_index_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_SERVER_OBJECT_STORE_H_
