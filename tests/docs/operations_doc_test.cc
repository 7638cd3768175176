// Doc-drift guard for docs/OPERATIONS.md.
//
// The operator's manual carries a metrics catalog between explicit
// `<!-- metrics-catalog:begin/end -->` markers. This test boots a fully
// featured service, runs a small smoke workload, exports the live
// MetricsRegistry, and requires the documented catalog and the registered
// metric set to match *exactly* — a new metric without documentation fails,
// and so does documentation of a metric that no longer exists.
//
// CLOAKDB_SOURCE_DIR is injected by the build so the test can read the
// checked-in markdown regardless of the build directory.

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "net/server.h"
#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/minijson.h"
#include "util/random.h"

#ifndef CLOAKDB_SOURCE_DIR
#error "CLOAKDB_SOURCE_DIR must be defined by the build"
#endif

namespace cloakdb {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// True for metric-shaped names: lowercase dotted paths like
/// `query.private_nn.latency_us`. Filters out prose code spans
/// (`ResourceExhausted`, policy names) sharing the catalog cells.
bool LooksLikeMetricName(const std::string& token) {
  bool has_dot = false;
  if (token.empty() || token.front() == '.' || token.back() == '.')
    return false;
  for (char c : token) {
    if (c == '.') {
      has_dot = true;
    } else if (!(c == '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))) {
      return false;
    }
  }
  return has_dot;
}

/// Backtick-quoted metric names between the metrics-catalog markers.
std::set<std::string> DocumentedMetrics(const std::string& markdown) {
  const std::string begin_marker = "<!-- metrics-catalog:begin -->";
  const std::string end_marker = "<!-- metrics-catalog:end -->";
  size_t begin = markdown.find(begin_marker);
  size_t end = markdown.find(end_marker);
  EXPECT_NE(begin, std::string::npos) << "missing " << begin_marker;
  EXPECT_NE(end, std::string::npos) << "missing " << end_marker;
  std::set<std::string> names;
  if (begin == std::string::npos || end == std::string::npos) return names;
  size_t pos = begin;
  while (true) {
    size_t open = markdown.find('`', pos);
    if (open == std::string::npos || open >= end) break;
    size_t close = markdown.find('`', open + 1);
    if (close == std::string::npos || close > end) break;
    std::string token = markdown.substr(open + 1, close - open - 1);
    if (LooksLikeMetricName(token)) names.insert(token);
    pos = close + 1;
  }
  return names;
}

/// Every metric name the smoke service actually registers, from ExportJson.
std::set<std::string> RegisteredMetrics(const obs::MetricsRegistry& metrics) {
  std::string error;
  auto doc = util::JsonValue::Parse(metrics.ExportJson(), &error);
  EXPECT_NE(doc, nullptr) << "metrics export is not valid JSON: " << error;
  std::set<std::string> names;
  if (doc == nullptr) return names;
  for (const auto& [section, value] : doc->members()) {
    for (const auto& [name, metric] : value.members()) names.insert(name);
  }
  return names;
}

TEST(OperationsDocTest, MetricsCatalogMatchesRegistryExactly) {
  const std::string doc_path =
      std::string(CLOAKDB_SOURCE_DIR) + "/docs/OPERATIONS.md";
  std::set<std::string> documented = DocumentedMetrics(ReadFileOrDie(doc_path));
  ASSERT_FALSE(documented.empty());

  // A smoke service with every subsystem armed, so the registry holds the
  // complete catalog (robustness metrics are created eagerly either way).
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = 2;
  options.enable_shared_execution = true;
  options.trace.enabled = true;
  options.overload.query_deadline_us = 1'000'000;
  options.fault_injection.enabled = true;
  auto db = CloakDbService::Create(options).value();

  // Touch the main paths once; metric creation must not depend on traffic.
  Rng rng(3);
  PoiOptions poi_options;
  poi_options.count = 50;
  poi_options.category = poi_category::kGasStation;
  poi_options.name_prefix = "gas";
  ASSERT_TRUE(db->BulkLoadCategory(
                    poi_category::kGasStation,
                    GeneratePois(Rect(0, 0, 100, 100), poi_options, &rng)
                        .value())
                  .ok());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(
      db->RegisterUser(1, PrivacyProfile::Uniform({2, 0.0, kInf}).value())
          .ok());
  ASSERT_TRUE(db->RegisterUser(2, PrivacyProfile::Uniform({2, 0.0, kInf})
                                      .value())
                  .ok());
  TimeOfDay noon = TimeOfDay::FromHms(12, 0).value();
  ASSERT_TRUE(db->EnqueueUpdate(1, Point(10, 10), noon).ok());
  ASSERT_TRUE(db->EnqueueUpdate(2, Point(12, 11), noon).ok());
  ASSERT_TRUE(db->Flush().ok());
  db->PrivateRange(Rect(5, 5, 20, 20), 5, poi_category::kGasStation);
  db->PrivateNn(Rect(5, 5, 20, 20), poi_category::kGasStation);
  db->PrivateKnn(Rect(5, 5, 20, 20), 2, poi_category::kGasStation);
  db->PublicCount(Rect(0, 0, 50, 50));
  db->Heatmap(4);

  // The net.* metrics register eagerly when a wire server is created on
  // the service's registry — no traffic needed.
  auto server = net::CloakServer::Create(db.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::set<std::string> registered = RegisteredMetrics(db->metrics());
  ASSERT_FALSE(registered.empty());

  for (const auto& name : registered) {
    EXPECT_TRUE(documented.count(name))
        << "metric `" << name
        << "` is registered but missing from docs/OPERATIONS.md — add it to "
           "the metrics catalog";
  }
  for (const auto& name : documented) {
    EXPECT_TRUE(registered.count(name))
        << "docs/OPERATIONS.md documents `" << name
        << "` but no such metric is registered — stale documentation";
  }
}

TEST(OperationsDocTest, ManualIsLinkedFromReadmeAndDesign) {
  const std::string root(CLOAKDB_SOURCE_DIR);
  EXPECT_NE(ReadFileOrDie(root + "/README.md").find("docs/OPERATIONS.md"),
            std::string::npos)
      << "README.md must link the operator's manual";
  EXPECT_NE(ReadFileOrDie(root + "/DESIGN.md").find("docs/OPERATIONS.md"),
            std::string::npos)
      << "DESIGN.md must link the operator's manual";
}

TEST(OperationsDocTest, ArchitectureAndIndexDocsExistAndAreLinked) {
  const std::string root(CLOAKDB_SOURCE_DIR);
  const std::string architecture = ReadFileOrDie(root + "/docs/ARCHITECTURE.md");
  const std::string indexes = ReadFileOrDie(root + "/docs/INDEXES.md");
  ASSERT_FALSE(architecture.empty());
  ASSERT_FALSE(indexes.empty());

  const std::string readme = ReadFileOrDie(root + "/README.md");
  EXPECT_NE(readme.find("docs/ARCHITECTURE.md"), std::string::npos)
      << "README.md must link the architecture map";
  EXPECT_NE(readme.find("docs/INDEXES.md"), std::string::npos)
      << "README.md must link the index reference";
  EXPECT_NE(ReadFileOrDie(root + "/DESIGN.md").find("docs/ARCHITECTURE.md"),
            std::string::npos)
      << "DESIGN.md (section 1) must link the architecture map";
  // The docs cross-link each other so a reader can move between the map,
  // the index internals, and the operator's manual.
  EXPECT_NE(architecture.find("INDEXES.md"), std::string::npos);
  EXPECT_NE(architecture.find("OPERATIONS.md"), std::string::npos);
  EXPECT_NE(indexes.find("ARCHITECTURE.md"), std::string::npos);
}

/// Backtick-quoted `--flag` tokens in the given markdown. `--benchmark*`
/// tokens belong to the google-benchmark harness and are skipped.
std::set<std::string> DocumentedToolFlags(const std::string& markdown) {
  std::set<std::string> flags;
  size_t pos = 0;
  while (true) {
    size_t open = markdown.find('`', pos);
    if (open == std::string::npos) break;
    size_t close = markdown.find('`', open + 1);
    if (close == std::string::npos) break;
    std::string token = markdown.substr(open + 1, close - open - 1);
    pos = close + 1;
    if (token.rfind("--", 0) != 0 || token.rfind("--benchmark", 0) == 0)
      continue;
    // Strip "=VALUE" and any trailing prose ("|dynamic", " on cloaksim").
    std::string name;
    for (size_t i = 2; i < token.size(); ++i) {
      char c = token[i];
      if (!(c == '-' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')))
        break;
      name.push_back(c);
    }
    if (!name.empty()) flags.insert(name);
  }
  return flags;
}

TEST(OperationsDocTest, FlagsNamedInNewDocsParseInTheTools) {
  // Every cloaksim/cloakd flag the new docs name must exist in a tool's
  // argument parser — flags appear there as the quoted literal passed to
  // ParseArg (e.g. "public-index"). A doc naming a dropped or misspelled
  // flag fails here; CI additionally smoke-runs `--help` on both tools.
  const std::string root(CLOAKDB_SOURCE_DIR);
  const std::string tool_sources =
      ReadFileOrDie(root + "/tools/cloaksim.cc") +
      ReadFileOrDie(root + "/tools/cloakd/cloakd.cc");
  std::set<std::string> flags;
  for (const char* doc : {"/docs/ARCHITECTURE.md", "/docs/INDEXES.md"}) {
    for (const auto& flag : DocumentedToolFlags(ReadFileOrDie(root + doc)))
      flags.insert(flag);
  }
  EXPECT_FALSE(flags.empty())
      << "expected the new docs to name at least one tool flag";
  for (const auto& flag : flags) {
    EXPECT_NE(tool_sources.find("\"" + flag + "\""), std::string::npos)
        << "docs name `--" << flag
        << "` but neither cloaksim nor cloakd parses it";
  }
}

/// A `path:line` source anchor: a relative file path, a colon, digits.
bool IsSourceAnchor(const std::string& token, std::string* path,
                    int* line) {
  const size_t colon = token.rfind(':');
  if (colon == std::string::npos || colon + 1 == token.size() ||
      token.find('/') == std::string::npos)
    return false;
  for (size_t i = colon + 1; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') return false;
  }
  *path = token.substr(0, colon);
  *line = std::stoi(token.substr(colon + 1));
  return true;
}

/// Line `line` (1-based) of `text`, or "" past the end.
std::string LineOf(const std::string& text, int line) {
  std::istringstream in(text);
  std::string current;
  for (int i = 1; std::getline(in, current); ++i) {
    if (i == line) return current;
  }
  return "";
}

TEST(OperationsDocTest, SourceAnchorsPointAtTheirIdentifiers) {
  // Each backticked `path:line` anchor must cite a line that contains the
  // identifier backticked just before it, e.g. `Shard::ApplyBatch`
  // (`src/service/shard.cc:155`). Code moves; this keeps the docs honest.
  const std::string root(CLOAKDB_SOURCE_DIR);
  size_t anchors = 0;
  for (const char* doc :
       {"/docs/ARCHITECTURE.md", "/docs/INDEXES.md", "/docs/OPERATIONS.md"}) {
    const std::string markdown = ReadFileOrDie(root + doc);
    std::string identifier;
    size_t pos = 0;
    while (true) {
      size_t open = markdown.find('`', pos);
      if (open == std::string::npos) break;
      if (markdown.compare(open, 3, "```") == 0) {
        // Skip fenced blocks: diagrams and shell snippets cite nothing.
        const size_t fence_end = markdown.find("```", open + 3);
        if (fence_end == std::string::npos) break;
        pos = fence_end + 3;
        continue;
      }
      size_t close = markdown.find('`', open + 1);
      if (close == std::string::npos) break;
      const std::string token = markdown.substr(open + 1, close - open - 1);
      pos = close + 1;
      std::string path;
      int line = 0;
      if (!IsSourceAnchor(token, &path, &line)) {
        identifier = token;
        continue;
      }
      ++anchors;
      ASSERT_FALSE(identifier.empty())
          << doc << ": anchor `" << token << "` names no identifier";
      if (identifier.size() > 2 &&
          identifier.compare(identifier.size() - 2, 2, "()") == 0)
        identifier.resize(identifier.size() - 2);
      EXPECT_NE(LineOf(ReadFileOrDie(root + "/" + path), line)
                    .find(identifier),
                std::string::npos)
          << doc << ": `" << token << "` does not point at `" << identifier
          << "`";
    }
  }
  EXPECT_GT(anchors, 0u) << "expected the docs to cite source lines";
}

}  // namespace
}  // namespace cloakdb
