#include "server/public_queries.h"

#include <algorithm>
#include <limits>

#include "geom/distance.h"

namespace cloakdb {

double CountContributionOf(const Rect& region, const Rect& window) {
  if (!region.Intersects(window)) return 0.0;
  if (region.Area() > 0.0) return region.OverlapFraction(window);
  // Degenerate (zero-area) region: the user's position is pinned to a
  // point or segment. Certain presence requires the whole region strictly
  // inside the window; touching the boundary is a measure-zero overlap
  // and must not count (let alone as certain).
  bool strictly_inside =
      region.min_x > window.min_x && region.max_x < window.max_x &&
      region.min_y > window.min_y && region.max_y < window.max_y;
  return strictly_inside ? 1.0 : 0.0;
}

std::vector<CountContribution> ScanCountContributions(const ObjectStore& store,
                                                      const Rect& window) {
  std::vector<CountContribution> contributions;
  for (const auto& entry : store.private_index().IntersectingRects(window)) {
    contributions.push_back(
        {entry.id, CountContributionOf(entry.rect, window)});
  }
  return contributions;
}

Result<PublicCountResult> PublicRangeCountQuery(const ObjectStore& store,
                                                const Rect& window) {
  if (window.IsEmpty())
    return Status::InvalidArgument("query window must be non-empty");

  PublicCountResult result;
  result.contributions = ScanCountContributions(store, window);
  result.naive_count = result.contributions.size();
  std::vector<double> probabilities;
  probabilities.reserve(result.contributions.size());
  for (const auto& c : result.contributions)
    probabilities.push_back(c.probability);
  auto answer = MakeCountAnswer(probabilities);
  if (!answer.ok()) return answer.status();
  result.answer = std::move(answer).value();
  return result;
}

Result<PublicNnResult> PublicNnQuery(const ObjectStore& store,
                                     const Point& from,
                                     const PublicNnOptions& options) {
  if (store.num_private() == 0)
    return Status::NotFound("no private data stored");

  // Gather (pseudonym, region, min, max) for every private object.
  std::vector<NnCandidate> all;
  all.reserve(store.num_private());
  store.private_index().ForEach([&](const RectEntry& entry) {
    NnCandidate c;
    c.pseudonym = entry.id;
    c.region = entry.rect;
    c.min_dist = MinDist(from, entry.rect);
    c.max_dist = MaxDist(from, entry.rect);
    all.push_back(std::move(c));
  });

  // Prune: user u is never nearest when some other user u' satisfies
  // MaxDist(u') < MinDist(u) — u' beats u for every possible pair of
  // locations (paper: "A, B and C are eliminated ... D would be more near
  // ... than any location of these objects").
  double min_max = std::numeric_limits<double>::infinity();
  for (const auto& c : all) min_max = std::min(min_max, c.max_dist);

  PublicNnResult result;
  for (auto& c : all) {
    if (c.min_dist <= min_max) {
      result.candidates.push_back(std::move(c));
    } else {
      ++result.pruned;
    }
  }

  // Probability estimation under uniformity via seeded Monte Carlo: in each
  // trial, draw one location per candidate and award the nearest.
  if (result.candidates.size() == 1) {
    result.candidates.front().probability = 1.0;
  } else if (options.mc_samples > 0) {
    Rng rng(options.seed);
    std::vector<uint64_t> wins(result.candidates.size(), 0);
    for (size_t trial = 0; trial < options.mc_samples; ++trial) {
      double best = std::numeric_limits<double>::infinity();
      size_t winner = 0;
      for (size_t i = 0; i < result.candidates.size(); ++i) {
        const Rect& r = result.candidates[i].region;
        Point p{r.max_x > r.min_x ? rng.Uniform(r.min_x, r.max_x) : r.min_x,
                r.max_y > r.min_y ? rng.Uniform(r.min_y, r.max_y) : r.min_y};
        double d = DistanceSquared(from, p);
        if (d < best) {
          best = d;
          winner = i;
        }
      }
      ++wins[winner];
    }
    for (size_t i = 0; i < result.candidates.size(); ++i) {
      result.candidates[i].probability =
          static_cast<double>(wins[i]) /
          static_cast<double>(options.mc_samples);
    }
  }

  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const NnCandidate& a, const NnCandidate& b) {
              if (a.probability != b.probability)
                return a.probability > b.probability;
              return a.pseudonym < b.pseudonym;
            });
  if (!result.candidates.empty())
    result.most_likely = result.candidates.front().pseudonym;
  return result;
}

Rect HeatmapResult::CellRect(uint32_t cx, uint32_t cy) const {
  double w = space.Width() / resolution;
  double h = space.Height() / resolution;
  return {space.min_x + cx * w, space.min_y + cy * h,
          space.min_x + (cx + 1) * w, space.min_y + (cy + 1) * h};
}

double HeatmapResult::TotalMass() const {
  double total = 0.0;
  for (double v : expected) total += v;
  return total;
}

Result<HeatmapResult> PublicHeatmapQuery(const ObjectStore& store,
                                         uint32_t resolution) {
  if (resolution == 0)
    return Status::InvalidArgument("heatmap resolution must be >= 1");
  HeatmapResult result;
  result.resolution = resolution;
  result.space = store.space();
  result.expected.assign(static_cast<size_t>(resolution) * resolution, 0.0);

  double cw = result.space.Width() / resolution;
  double ch = result.space.Height() / resolution;
  auto cell_of = [&](double v, double lo, double step) {
    auto c = static_cast<int64_t>(std::floor((v - lo) / step));
    return static_cast<uint32_t>(
        std::clamp<int64_t>(c, 0, static_cast<int64_t>(resolution) - 1));
  };

  store.private_index().ForEach([&](const RectEntry& entry) {
    Rect clipped = entry.rect.Intersection(result.space);
    if (clipped.IsEmpty()) return;
    if (entry.rect.Area() <= 0.0) {
      // Exact point: all mass in one cell.
      uint32_t cx = cell_of(clipped.min_x, result.space.min_x, cw);
      uint32_t cy = cell_of(clipped.min_y, result.space.min_y, ch);
      result.expected[static_cast<size_t>(cy) * resolution + cx] += 1.0;
      return;
    }
    uint32_t cx0 = cell_of(clipped.min_x, result.space.min_x, cw);
    uint32_t cx1 = cell_of(clipped.max_x, result.space.min_x, cw);
    uint32_t cy0 = cell_of(clipped.min_y, result.space.min_y, ch);
    uint32_t cy1 = cell_of(clipped.max_y, result.space.min_y, ch);
    for (uint32_t cy = cy0; cy <= cy1; ++cy) {
      for (uint32_t cx = cx0; cx <= cx1; ++cx) {
        Rect cell{result.space.min_x + cx * cw, result.space.min_y + cy * ch,
                  result.space.min_x + (cx + 1) * cw,
                  result.space.min_y + (cy + 1) * ch};
        double overlap = entry.rect.Intersection(cell).Area();
        if (overlap > 0.0) {
          result.expected[static_cast<size_t>(cy) * resolution + cx] +=
              overlap / entry.rect.Area();
        }
      }
    }
  });
  return result;
}

}  // namespace cloakdb
