// The Location Anonymizer: the trusted third party of paper Fig. 1.
//
// Mobile users register with a privacy profile, then stream exact location
// updates. The anonymizer maintains a live snapshot of all active users,
// cloaks every update into a region satisfying the user's current
// requirement, and emits (pseudonym, region) pairs — never exact points —
// for the location-based database server.
//
// Scalability features of paper Section 5.3 are built in:
//   - incremental evaluation: a user's previous region is reused while it
//     still covers her and still satisfies her (time-resolved) requirement;
//   - shared execution: batch updates group users by cell (the grid cell,
//     or the finest pyramid cell for the pyramid kinds) and compute one
//     region per (cell, requirement) group for the space-dependent
//     algorithms.

#ifndef CLOAKDB_CORE_ANONYMIZER_H_
#define CLOAKDB_CORE_ANONYMIZER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cloaking.h"
#include "core/privacy_profile.h"
#include "util/random.h"
#include "util/status.h"
#include "util/time_of_day.h"

namespace cloakdb {

/// User identity as known to the anonymizer (never forwarded to the server).
using UserId = ObjectId;

/// Selection of the cloaking algorithm plugged into the anonymizer.
///
/// kQuadtree and kMultiLevelGrid name one rule: both run the multi-level
/// grid cloaker over the count pyramid, a complete quadtree whose deepest
/// cell holding k users is paper Fig. 4a's quadrant. kQuadtree keeps its
/// name and value because audit events carry the kind as this byte.
enum class CloakingKind {
  kNaive,
  kMbr,
  kQuadtree,
  kGrid,
  kMultiLevelGrid,
};

/// Human-readable algorithm name ("naive", "mbr", ...).
const char* CloakingKindName(CloakingKind kind);

/// Parse-side inverse of CloakingKindName: resolves "naive", "mbr",
/// "quadtree", "grid" or "multilevel-grid" back to the enum. Fails with
/// InvalidArgument on any other spelling.
Result<CloakingKind> CloakingKindFromName(const std::string& name);

/// Anonymizer configuration.
struct AnonymizerOptions {
  /// The managed space; every reported location must fall inside.
  Rect space{0.0, 0.0, 1.0, 1.0};

  CloakingKind algorithm = CloakingKind::kGrid;
  ConflictPolicy policy = ConflictPolicy::kPreferPrivacy;
  UserSnapshot::Options snapshot;

  /// Reuse a user's previous region while it remains valid (Section 5.3).
  bool enable_incremental = true;

  /// Share region computations across same-cell users in batch updates
  /// (Section 5.3); only effective for space-dependent algorithms.
  bool enable_shared_execution = true;

  /// Seed of the pseudonym generator (pseudonyms are stable per user).
  uint64_t pseudonym_seed = 0xC10AC0DBULL;

  /// Rotate a user's pseudonym every this many location updates (0 =
  /// never). Rotation limits how long any server-side identifier can be
  /// tracked; the retired pseudonym is surfaced on the rotating update so
  /// the forwarder drops the stale server record. NOTE: drop-and-replace
  /// in one message still lets the server link the two pseudonyms by
  /// timing — unlinkable rotation additionally needs batching across
  /// users (see core/linkage.h for measuring the residual threat).
  uint32_t pseudonym_rotation_period = 0;
};

/// One anonymized location update, ready to forward to the server.
struct CloakedUpdate {
  /// Pseudonym the server knows the user by (stable between rotations).
  ObjectId pseudonym = 0;
  /// The cloaked region plus satisfaction metadata.
  CloakedRegion cloaked;
  /// True when the previous region was reused (incremental evaluation).
  bool reused_previous = false;
  /// True when the region came from a shared (batch) computation.
  bool shared = false;
  /// Non-zero when this update rotated the pseudonym: the old server-side
  /// record under this id must be dropped.
  ObjectId retired_pseudonym = 0;
};

/// Self-instrumentation counters.
struct AnonymizerStats {
  uint64_t updates = 0;            ///< Location updates processed.
  uint64_t cloaks_computed = 0;    ///< Regions computed from scratch.
  uint64_t incremental_reuses = 0; ///< Updates served by the previous region.
  uint64_t shared_reuses = 0;      ///< Updates served by a group's region.
  uint64_t unsatisfied = 0;        ///< Best-effort results missing a constraint.
};

/// Complete externalized state of one registered user, for checkpointing.
/// Mirrors the private UserState plus the user id and the raw profile
/// entries (a PrivacyProfile is reconstructed from them on restore).
struct ExportedUserState {
  UserId user = 0;
  std::vector<ProfileEntry> profile;
  ObjectId pseudonym = 0;
  bool has_location = false;
  Point location;
  bool has_cached_region = false;
  CloakedRegion cached;
  uint32_t updates_since_rotation = 0;
};

/// Everything the anonymizer needs to resume bit-exactly after a restart:
/// per-user state, the full used-pseudonym set (retired pseudonyms stay
/// reserved until their user unregisters, so it is NOT derivable from the
/// live users), the pseudonym generator state, and the stats counters.
struct AnonymizerState {
  std::vector<ExportedUserState> users;   ///< Sorted by user id.
  std::vector<ObjectId> used_pseudonyms;  ///< Sorted.
  RngState pseudonym_rng;
  AnonymizerStats stats;
};

/// The trusted third party between mobile users and the database server.
///
/// Thread safety: the Anonymizer is *externally synchronized*. All mutating
/// entry points (registration, profile changes, location updates, and
/// CloakForQuery — which refreshes caches, stats and pseudonym rotation)
/// require exclusive access. The const read paths (`PseudonymOf`,
/// `num_users`, `snapshot`, `options`, `stats`) perform no mutation, not
/// even of caches, and are safe to call concurrently with each other as
/// long as no mutating call is in flight. The service layer
/// (`src/service/`) enforces this contract with one reader/writer lock per
/// shard.
class Anonymizer {
 public:
  /// Validates the options. Fails with InvalidArgument on an empty space.
  static Result<std::unique_ptr<Anonymizer>> Create(
      const AnonymizerOptions& options);

  /// Registers a user with her privacy profile; assigns a fresh pseudonym.
  /// Fails with AlreadyExists when the user is registered.
  Status RegisterUser(UserId user, PrivacyProfile profile);

  /// Replaces a user's profile (takes effect on her next update). The
  /// cached previous region is invalidated.
  Status UpdateProfile(UserId user, PrivacyProfile profile);

  /// Removes the user and her snapshot entry.
  Status UnregisterUser(UserId user);

  /// Processes one exact location update at wall-clock time `now`:
  /// refreshes the snapshot and returns the cloaked update to forward.
  Result<CloakedUpdate> UpdateLocation(UserId user, const Point& location,
                                       TimeOfDay now);

  /// Batch form of UpdateLocation: applies all snapshot changes first, then
  /// cloaks everyone against the resulting snapshot, sharing computations
  /// per (grid cell, requirement) group when enabled. Results align with
  /// the input order. Fails atomically: every update is validated before
  /// any snapshot or user state changes, so one invalid entry leaves the
  /// anonymizer exactly as it was.
  Result<std::vector<CloakedUpdate>> UpdateLocationsBatch(
      const std::vector<std::pair<UserId, Point>>& updates, TimeOfDay now);

  /// Cloaks the user's *current* (last reported) location for an outgoing
  /// query, hiding the query identity behind the pseudonym.
  Result<CloakedUpdate> CloakForQuery(UserId user, TimeOfDay now);

  /// The stable pseudonym of a registered user.
  Result<ObjectId> PseudonymOf(UserId user) const;

  /// True when `user` is currently registered (cheap pre-validation for
  /// batch ingestion: lets the drain path shed unknown users without
  /// tripping the batch API's atomic-failure contract).
  bool IsRegistered(UserId user) const { return users_.count(user) != 0; }

  /// Number of registered users.
  size_t num_users() const { return users_.size(); }

  /// Live snapshot (read-only; exposed for tests and benchmarks).
  const UserSnapshot& snapshot() const { return *snapshot_; }

  const AnonymizerOptions& options() const { return options_; }
  const AnonymizerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = AnonymizerStats{}; }

  /// Serializes the full mutable state (users sorted by id, pseudonym set
  /// sorted) for a checkpoint. Const: safe under a shared lock.
  AnonymizerState ExportState() const;

  /// Replaces ALL mutable state with a previously exported one and
  /// rebuilds the live snapshot by inserting users in ascending-id order.
  /// After a successful restore the anonymizer behaves bit-exactly like
  /// the instance that exported: the grid and the pyramid are pure
  /// functions of the location multiset, so every algorithm's regions are
  /// independent of the insertion order. Fails (leaving the anonymizer
  /// empty) on invalid state, e.g. an unparsable profile or an
  /// out-of-space location.
  Status RestoreState(const AnonymizerState& state);

 private:
  struct UserState {
    PrivacyProfile profile;
    ObjectId pseudonym = 0;
    bool has_location = false;
    Point location;
    bool has_cached_region = false;
    CloakedRegion cached;  // last emitted region
    uint32_t updates_since_rotation = 0;
  };

  /// Rotates the pseudonym when the period elapsed; returns the retired
  /// pseudonym (0 when no rotation happened).
  ObjectId MaybeRotatePseudonym(UserState* state);

  explicit Anonymizer(const AnonymizerOptions& options);

  /// Replaces snapshot_ with an empty one (with the pyramid only when the
  /// configured algorithm reads it) and rebuilds the cloaking algorithm
  /// against it; called from the ctor and by RestoreState.
  void ResetSnapshot();

  ObjectId NewPseudonym();
  /// Returns the current population of the cached region when it can be
  /// reused for `location` under `req`, and nullopt otherwise (so the
  /// reuse path never counts the region twice).
  std::optional<uint32_t> CanReuseCached(const UserState& state,
                                         const Point& location,
                                         const PrivacyRequirement& req) const;
  Result<CloakedRegion> ComputeCloak(UserId user, const Point& location,
                                     const PrivacyRequirement& req) const;
  CloakedUpdate FinishUpdate(UserState* state, CloakedRegion region,
                             bool reused, bool shared);

  AnonymizerOptions options_;
  std::unique_ptr<UserSnapshot> snapshot_;
  std::unique_ptr<CloakingAlgorithm> algorithm_;
  std::unordered_map<UserId, UserState> users_;
  std::unordered_set<ObjectId> used_pseudonyms_;
  Rng pseudonym_rng_;
  AnonymizerStats stats_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_CORE_ANONYMIZER_H_
