#include "server/object_store.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

namespace cloakdb {

namespace {

Status CheckFinite(const Point& p) {
  if (!std::isfinite(p.x) || !std::isfinite(p.y))
    return Status::InvalidArgument("public object location must be finite");
  return Status::OK();
}

std::vector<PointEntry> EntriesOf(const std::vector<PublicObject>& objects) {
  std::vector<PointEntry> entries;
  entries.reserve(objects.size());
  for (const auto& o : objects) entries.push_back({o.id, o.location});
  return entries;
}

}  // namespace

ObjectStore::ObjectStore(const Rect& space, uint32_t rect_grid_cells,
                         const PublicCategoryIndex::Config& public_index)
    : space_(space),
      public_index_(public_index),
      private_index_(space, rect_grid_cells) {}

Status CheckPublicObject(const PublicObject& object) {
  CLOAKDB_RETURN_IF_ERROR(CheckFinite(object.location));
  if (object.name.size() > util::kMaxStringBytes)
    return Status::InvalidArgument("public object name exceeds " +
                                   std::to_string(util::kMaxStringBytes) +
                                   " bytes");
  return Status::OK();
}

Status CheckPublicBatch(const std::vector<PublicObject>& objects,
                        size_t max_bytes) {
  std::unordered_set<ObjectId> seen;
  seen.reserve(objects.size() * 2);
  size_t bytes = 0;
  for (const PublicObject& o : objects) {
    CLOAKDB_RETURN_IF_ERROR(CheckPublicObject(o));
    if (!seen.insert(o.id).second)
      return Status::InvalidArgument("duplicate public object id in batch");
    bytes += PublicObjectBytes(o);
  }
  if (bytes > max_bytes)
    return Status::InvalidArgument(
        "public batch encodes to " + std::to_string(bytes) +
        " bytes, over the " + std::to_string(max_bytes) + "-byte limit");
  return Status::OK();
}

void WriteRect(util::ByteWriter* w, const Rect& rect) {
  w->F64(rect.min_x);
  w->F64(rect.min_y);
  w->F64(rect.max_x);
  w->F64(rect.max_y);
}

Rect ReadRect(util::ByteReader* r) {
  Rect rect;
  rect.min_x = r->F64();
  rect.min_y = r->F64();
  rect.max_x = r->F64();
  rect.max_y = r->F64();
  return rect;
}

void WritePublicObject(util::ByteWriter* w, const PublicObject& object) {
  w->U64(object.id);
  w->F64(object.location.x);
  w->F64(object.location.y);
  w->U32(object.category);
  w->String(object.name);
}

PublicObject ReadPublicObject(util::ByteReader* r) {
  PublicObject object;
  object.id = r->U64();
  object.location.x = r->F64();
  object.location.y = r->F64();
  object.category = r->U32();
  object.name = r->String();
  return object;
}

size_t PublicObjectBytes(const PublicObject& object) {
  return kMinPublicObjectBytes + object.name.size();
}

std::optional<ObjectStore::StoredRow> ObjectStore::FindRow(ObjectId id) const {
  for (const auto& [category, table] : public_tables_) {
    if (auto row = table.index.RowOf(id)) return StoredRow{category, *row};
  }
  return std::nullopt;
}

void ObjectStore::PutRow(PublicTable* table, PublicObject object) {
  const uint64_t row = table->index.RowOf(object.id).value();
  if (row >= table->rows.size()) {
    table->rows.resize(row + 1);
    table->live.resize(row + 1);
  }
  table->rows[row] = std::move(object);
  table->live[row] = true;
}

template <typename Mutation>
Status ObjectStore::MutateIndex(PublicTable* table, Mutation&& mutation) {
  const uint64_t generation = table->index.seal_generation();
  CLOAKDB_RETURN_IF_ERROR(mutation(table->index));
  if (table->index.seal_generation() == generation) return Status::OK();
  // Every row moved: lay the live records out again by their new rows.
  std::vector<PublicObject> old_rows = std::move(table->rows);
  std::vector<bool> old_live = std::move(table->live);
  table->rows.assign(table->index.row_count(), PublicObject{});
  table->live.assign(table->index.row_count(), false);
  for (size_t r = 0; r < old_rows.size(); ++r) {
    if (old_live[r]) PutRow(table, std::move(old_rows[r]));
  }
  return Status::OK();
}

Status ObjectStore::CheckAdd(const PublicObject& object) const {
  CLOAKDB_RETURN_IF_ERROR(CheckPublicObject(object));
  if (FindRow(object.id).has_value())
    return Status::AlreadyExists("public object id already stored");
  return Status::OK();
}

Status ObjectStore::AddPublicObject(const PublicObject& object,
                                    const std::function<Status()>& log) {
  CLOAKDB_RETURN_IF_ERROR(CheckAdd(object));
  if (log) CLOAKDB_RETURN_IF_ERROR(log());
  PublicTable* table =
      &public_tables_.try_emplace(object.category, public_index_)
           .first->second;
  CLOAKDB_RETURN_IF_ERROR(MutateIndex(table, [&](PublicCategoryIndex& index) {
    return index.Insert(object.id, object.location);
  }));
  PutRow(table, object);
  return Status::OK();
}

Status ObjectStore::RemovePublicObject(ObjectId id) {
  const auto found = FindRow(id);
  if (!found.has_value())
    return Status::NotFound("public object id not stored");
  PublicTable* table = &public_tables_.at(found->category);
  CLOAKDB_RETURN_IF_ERROR(MutateIndex(table, [&](PublicCategoryIndex& index) {
    CLOAKDB_RETURN_IF_ERROR(index.Remove(id));
    // Dead before a compaction can re-lay the rows.
    table->rows[found->row] = PublicObject{};
    table->live[found->row] = false;
    return Status::OK();
  }));
  if (table->index.size() == 0) public_tables_.erase(found->category);
  return Status::OK();
}

Status ObjectStore::MovePublicObject(ObjectId id, const Point& new_location) {
  CLOAKDB_RETURN_IF_ERROR(CheckFinite(new_location));
  const auto found = FindRow(id);
  if (!found.has_value())
    return Status::NotFound("public object id not stored");
  PublicTable* table = &public_tables_.at(found->category);
  PublicObject object;
  CLOAKDB_RETURN_IF_ERROR(MutateIndex(table, [&](PublicCategoryIndex& index) {
    CLOAKDB_RETURN_IF_ERROR(index.Remove(id));
    object = std::exchange(table->rows[found->row], PublicObject{});
    table->live[found->row] = false;
    return Status::OK();
  }));
  object.location = new_location;
  CLOAKDB_RETURN_IF_ERROR(MutateIndex(table, [&](PublicCategoryIndex& index) {
    return index.Insert(id, new_location);
  }));
  PutRow(table, std::move(object));
  return Status::OK();
}

Status ObjectStore::BulkLoadCategory(Category category,
                                     std::vector<PublicObject> objects,
                                     const std::function<Status()>& log) {
  // Finiteness and unique ids are BulkLoad's checks; names are checked
  // here so every stored object passes CheckPublicObject.
  for (const PublicObject& o : objects)
    CLOAKDB_RETURN_IF_ERROR(CheckPublicObject(o));
  PublicTable table(public_index_);
  std::vector<uint64_t> input_of_row;
  CLOAKDB_RETURN_IF_ERROR(
      table.index.BulkLoad(EntriesOf(objects), &input_of_row));
  CLOAKDB_RETURN_IF_ERROR(CheckCategoryIds(category, objects));
  if (log) CLOAKDB_RETURN_IF_ERROR(log());
  // Every row is a leaf slot: put the records in slot order in place,
  // one permutation cycle at a time (row j takes objects[input_of_row[j]]),
  // marking each placed row by pointing it at itself.
  for (uint64_t start = 0; start < objects.size(); ++start) {
    if (input_of_row[start] == start) continue;
    PublicObject first = std::move(objects[start]);
    uint64_t row = start;
    while (input_of_row[row] != start) {
      const uint64_t from = input_of_row[row];
      objects[row] = std::move(objects[from]);
      input_of_row[row] = row;
      row = from;
    }
    objects[row] = std::move(first);
    input_of_row[row] = row;
  }
  for (PublicObject& o : objects) o.category = category;
  table.live.assign(objects.size(), true);
  table.rows = std::move(objects);
  InstallCategory(category, std::move(table));
  return Status::OK();
}

void ObjectStore::InstallCategory(Category category, PublicTable table) {
  if (table.index.size() == 0) {
    public_tables_.erase(category);
  } else {
    public_tables_.insert_or_assign(category, std::move(table));
  }
}

Status ObjectStore::CheckCategoryIds(
    Category category, const std::vector<PublicObject>& objects) const {
  std::unordered_set<ObjectId> ids;
  for (const auto& [other, table] : public_tables_) {
    if (other == category) continue;
    if (ids.empty()) {
      ids.reserve(objects.size());
      for (const PublicObject& o : objects) ids.insert(o.id);
    }
    if (table.index.HoldsAny(ids))
      return Status::AlreadyExists(
          "public object id already stored under another category");
  }
  return Status::OK();
}

Result<PublicObject> ObjectStore::GetPublicObject(ObjectId id) const {
  const auto found = FindRow(id);
  if (!found.has_value())
    return Status::NotFound("public object id not stored");
  return public_tables_.at(found->category).rows[found->row];
}

Result<const PublicCategoryIndex*> ObjectStore::CategoryIndex(
    Category category) const {
  auto it = public_tables_.find(category);
  if (it == public_tables_.end())
    return Status::NotFound("no public objects in category");
  return &it->second.index;
}

Result<const ObjectStore::PublicTable*> ObjectStore::CategoryTable(
    Category category) const {
  auto it = public_tables_.find(category);
  if (it == public_tables_.end())
    return Status::NotFound("no public objects in category");
  return &it->second;
}

size_t ObjectStore::num_public() const {
  size_t n = 0;
  for (const auto& [category, table] : public_tables_) n += table.index.size();
  return n;
}

Status ObjectStore::UpsertPrivateRegion(ObjectId pseudonym,
                                        const Rect& region) {
  if (region.IsEmpty())
    return Status::InvalidArgument("cloaked region must be non-empty");
  return private_index_.Upsert(pseudonym, region);
}

Status ObjectStore::RemovePrivateRegion(ObjectId pseudonym) {
  return private_index_.Remove(pseudonym);
}

Result<Rect> ObjectStore::GetPrivateRegion(ObjectId pseudonym) const {
  return private_index_.Get(pseudonym);
}

std::vector<PublicObject> ObjectStore::AllPublicObjects() const {
  std::vector<PublicObject> out;
  out.reserve(num_public());
  for (const auto& [category, table] : public_tables_) {
    for (size_t r = 0; r < table.rows.size(); ++r) {
      if (table.live[r]) out.push_back(table.rows[r]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const PublicObject& a, const PublicObject& b) {
              return a.id < b.id;
            });
  return out;
}

std::vector<std::pair<ObjectId, Rect>> ObjectStore::AllPrivateRegions() const {
  std::vector<std::pair<ObjectId, Rect>> out;
  out.reserve(private_index_.size());
  private_index_.ForEach(
      [&out](const RectEntry& e) { out.emplace_back(e.id, e.rect); });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace cloakdb
