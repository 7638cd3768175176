#include "server/object_store.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

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

Status ObjectStore::CheckAdd(const PublicObject& object) const {
  CLOAKDB_RETURN_IF_ERROR(CheckPublicObject(object));
  if (public_meta_.count(object.id) > 0)
    return Status::AlreadyExists("public object id already stored");
  return Status::OK();
}

Status ObjectStore::AddPublicObject(const PublicObject& object) {
  CLOAKDB_RETURN_IF_ERROR(CheckAdd(object));
  auto [it, inserted] = public_indexes_.try_emplace(
      object.category, PublicCategoryIndex(public_index_));
  (void)inserted;
  CLOAKDB_RETURN_IF_ERROR(it->second.Insert(object.id, object.location));
  public_meta_.emplace(object.id, object);
  return Status::OK();
}

Status ObjectStore::RemovePublicObject(ObjectId id) {
  auto it = public_meta_.find(id);
  if (it == public_meta_.end())
    return Status::NotFound("public object id not stored");
  PublicCategoryIndex& index = public_indexes_.at(it->second.category);
  CLOAKDB_RETURN_IF_ERROR(index.Remove(id));
  if (index.size() == 0) public_indexes_.erase(it->second.category);
  public_meta_.erase(it);
  return Status::OK();
}

Status ObjectStore::MovePublicObject(ObjectId id, const Point& new_location) {
  CLOAKDB_RETURN_IF_ERROR(CheckFinite(new_location));
  auto it = public_meta_.find(id);
  if (it == public_meta_.end())
    return Status::NotFound("public object id not stored");
  PublicCategoryIndex& index = public_indexes_.at(it->second.category);
  CLOAKDB_RETURN_IF_ERROR(index.Remove(id));
  CLOAKDB_RETURN_IF_ERROR(index.Insert(id, new_location));
  it->second.location = new_location;
  return Status::OK();
}

Status ObjectStore::BulkLoadCategory(Category category,
                                     std::vector<PublicObject> objects) {
  // Finiteness and unique ids are BulkLoad's checks; names are checked
  // here so every stored object passes CheckPublicObject.
  for (const PublicObject& o : objects)
    CLOAKDB_RETURN_IF_ERROR(CheckPublicObject(o));
  PublicCategoryIndex index{public_index_};
  CLOAKDB_RETURN_IF_ERROR(index.BulkLoad(EntriesOf(objects)));
  return ReplaceCategory(category, std::move(index), std::move(objects));
}

Status ObjectStore::AdoptCategorySealed(
    Category category, StaticRTree sealed,
    const std::vector<PublicObject>& objects) {
  PublicCategoryIndex index{public_index_};
  CLOAKDB_RETURN_IF_ERROR(
      index.AdoptSealed(std::move(sealed), EntriesOf(objects)));
  return ReplaceCategory(category, std::move(index), objects);
}

Status ObjectStore::ReplaceCategory(Category category,
                                    PublicCategoryIndex index,
                                    std::vector<PublicObject> objects) {
  CLOAKDB_RETURN_IF_ERROR(CheckCategoryIds(category, objects));
  for (auto it = public_meta_.begin(); it != public_meta_.end();) {
    if (it->second.category == category) {
      it = public_meta_.erase(it);
    } else {
      ++it;
    }
  }
  if (index.size() == 0) {
    public_indexes_.erase(category);
  } else {
    public_indexes_.insert_or_assign(category, std::move(index));
  }
  for (auto& o : objects) {
    o.category = category;
    const ObjectId id = o.id;
    public_meta_.insert_or_assign(id, std::move(o));
  }
  return Status::OK();
}

Status ObjectStore::CheckCategoryIds(
    Category category, const std::vector<PublicObject>& objects) const {
  for (const auto& o : objects) {
    auto it = public_meta_.find(o.id);
    if (it != public_meta_.end() && it->second.category != category)
      return Status::AlreadyExists(
          "public object id already stored under another category");
  }
  return Status::OK();
}

Result<PublicObject> ObjectStore::GetPublicObject(ObjectId id) const {
  auto it = public_meta_.find(id);
  if (it == public_meta_.end())
    return Status::NotFound("public object id not stored");
  return it->second;
}

Result<const PublicCategoryIndex*> ObjectStore::CategoryIndex(
    Category category) const {
  auto it = public_indexes_.find(category);
  if (it == public_indexes_.end())
    return Status::NotFound("no public objects in category");
  return &it->second;
}

PublicCategoryIndex* ObjectStore::MutableCategoryIndex(Category category) {
  auto it = public_indexes_.find(category);
  return it == public_indexes_.end() ? nullptr : &it->second;
}

std::vector<Category> ObjectStore::Categories() const {
  std::vector<Category> out;
  out.reserve(public_indexes_.size());
  for (const auto& [cat, tree] : public_indexes_) out.push_back(cat);
  return out;
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
  out.reserve(public_meta_.size());
  for (const auto& [id, object] : public_meta_) out.push_back(object);
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
