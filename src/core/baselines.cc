#include "core/baselines.h"

#include <algorithm>
#include <unordered_set>

#include "geom/distance.h"

namespace cloakdb {

Result<DummyUpdate> MakeDummyUpdate(const Point& true_location,
                                    const Rect& space,
                                    const DummyOptions& options, Rng* rng) {
  if (options.num_points == 0)
    return Status::InvalidArgument("dummy update needs at least one point");
  if (space.IsEmpty() || !space.Contains(true_location))
    return Status::InvalidArgument(
        "true location must lie inside a non-empty space");

  DummyUpdate update;
  update.points.reserve(options.num_points);
  // Draw dummies; locality keeps them plausible (a dummy across town is
  // easy to discard with map knowledge).
  Rect locality = options.locality_radius > 0.0
                      ? Rect::CenteredSquare(true_location,
                                             2.0 * options.locality_radius)
                            .Intersection(space)
                      : space;
  if (locality.IsEmpty()) locality = space;
  for (size_t i = 0; i + 1 < options.num_points; ++i) {
    update.points.push_back(
        {rng->Uniform(locality.min_x, locality.max_x),
         rng->Uniform(locality.min_y, locality.max_y)});
  }
  // Insert the real point at a random position so ordering leaks nothing.
  update.real_index = static_cast<size_t>(rng->NextBelow(options.num_points));
  update.points.insert(update.points.begin() + update.real_index,
                       true_location);
  return update;
}

DummyLeakageReport EvaluateDummyLeakage(
    const std::vector<DummyUpdate>& updates, Rng* rng) {
  DummyLeakageReport report;
  size_t exact = 0;
  for (const auto& update : updates) {
    size_t pick = static_cast<size_t>(rng->NextBelow(update.points.size()));
    const Point& truth = update.points[update.real_index];
    report.guess_error.Add(Distance(update.points[pick], truth));
    if (pick == update.real_index) ++exact;
  }
  report.identification_rate =
      updates.empty() ? 0.0
                      : static_cast<double>(exact) /
                            static_cast<double>(updates.size());
  return report;
}

Result<LandmarkUpdate> MakeLandmarkUpdate(
    const Point& true_location, const PublicCategoryIndex& landmarks) {
  auto nn = landmarks.KNearest(true_location, 1);
  if (nn.empty()) return Status::NotFound("no landmarks available");
  LandmarkUpdate update;
  update.landmark = nn.front().location;
  update.landmark_id = nn.front().id;
  update.displacement = Distance(true_location, update.landmark);
  return update;
}

LandmarkReport EvaluateLandmarks(const std::vector<Point>& users,
                                 const PublicCategoryIndex& landmarks) {
  LandmarkReport report;
  size_t exposed = 0;
  for (const Point& user : users) {
    auto update = MakeLandmarkUpdate(user, landmarks);
    if (!update.ok()) continue;
    report.displacement.Add(update.value().displacement);
    if (update.value().displacement == 0.0) ++exposed;
  }
  report.exposed_rate =
      users.empty() ? 0.0
                    : static_cast<double>(exposed) /
                          static_cast<double>(users.size());
  return report;
}

}  // namespace cloakdb
