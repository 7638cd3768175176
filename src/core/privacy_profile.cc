#include "core/privacy_profile.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace cloakdb {

std::string PrivacyRequirement::ToString() const {
  char buf[96];
  if (max_area == std::numeric_limits<double>::infinity()) {
    std::snprintf(buf, sizeof(buf), "k=%u Amin=%.6g Amax=inf", k, min_area);
  } else {
    std::snprintf(buf, sizeof(buf), "k=%u Amin=%.6g Amax=%.6g", k, min_area,
                  max_area);
  }
  return buf;
}

Status ValidateRequirement(const PrivacyRequirement& req) {
  if (req.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (std::isnan(req.min_area) || req.min_area < 0.0)
    return Status::InvalidArgument("min_area must be >= 0");
  if (std::isnan(req.max_area) || req.max_area <= 0.0)
    return Status::InvalidArgument("max_area must be > 0");
  if (req.IsContradictory())
    return Status::InvalidArgument("min_area exceeds max_area");
  return Status::OK();
}

Result<PrivacyProfile> PrivacyProfile::Create(
    std::vector<ProfileEntry> entries) {
  if (entries.size() > kMaxProfileEntries)
    return Status::InvalidArgument("profile has more than " +
                                   std::to_string(kMaxProfileEntries) +
                                   " entries");
  for (const auto& e : entries) {
    CLOAKDB_RETURN_IF_ERROR(ValidateRequirement(e.requirement));
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      if (entries[i].interval.Overlaps(entries[j].interval)) {
        return Status::InvalidArgument(
            "profile entries overlap in time: " +
            entries[i].interval.ToString() + " and " +
            entries[j].interval.ToString());
      }
    }
  }
  return PrivacyProfile(std::move(entries));
}

Result<PrivacyProfile> PrivacyProfile::Uniform(
    const PrivacyRequirement& req) {
  CLOAKDB_RETURN_IF_ERROR(ValidateRequirement(req));
  return PrivacyProfile({ProfileEntry{DailyInterval(), req}});
}

PrivacyProfile PrivacyProfile::PaperExample() {
  auto t8 = TimeOfDay::FromHms(8, 0).value();
  auto t17 = TimeOfDay::FromHms(17, 0).value();
  auto t22 = TimeOfDay::FromHms(22, 0).value();
  std::vector<ProfileEntry> entries;
  entries.push_back({DailyInterval(t8, t17), PrivacyRequirement{1, 0.0,
      std::numeric_limits<double>::infinity()}});
  entries.push_back({DailyInterval(t17, t22),
                     PrivacyRequirement{100, 1.0, 3.0}});
  entries.push_back({DailyInterval(t22, t8),
                     PrivacyRequirement{1000, 5.0,
                         std::numeric_limits<double>::infinity()}});
  auto profile = Create(std::move(entries));
  // The hard-coded example is valid by construction.
  return profile.value();
}

namespace {

// Splits on a delimiter, trimming surrounding whitespace; empty pieces are
// dropped.
std::vector<std::string> SplitTrimmed(const std::string& text, char delim) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string piece;
  while (std::getline(stream, piece, delim)) {
    size_t begin = piece.find_first_not_of(" \t\n");
    size_t end = piece.find_last_not_of(" \t\n");
    if (begin == std::string::npos) continue;
    out.push_back(piece.substr(begin, end - begin + 1));
  }
  return out;
}

}  // namespace

Result<PrivacyProfile> PrivacyProfile::Parse(const std::string& text) {
  std::vector<ProfileEntry> entries;
  for (const std::string& entry_text : SplitTrimmed(text, ';')) {
    auto tokens = SplitTrimmed(entry_text, ' ');
    if (tokens.empty())
      return Status::InvalidArgument("empty profile entry");
    // First token: "HH:MM-HH:MM".
    auto dash = tokens[0].find('-');
    if (dash == std::string::npos)
      return Status::InvalidArgument("expected HH:MM-HH:MM in '" +
                                     tokens[0] + "'");
    auto start = TimeOfDay::Parse(tokens[0].substr(0, dash));
    if (!start.ok()) return start.status();
    auto end = TimeOfDay::Parse(tokens[0].substr(dash + 1));
    if (!end.ok()) return end.status();

    ProfileEntry entry;
    entry.interval = DailyInterval(start.value(), end.value());
    for (size_t i = 1; i < tokens.size(); ++i) {
      const std::string& token = tokens[i];
      auto eq = token.find('=');
      if (eq == std::string::npos)
        return Status::InvalidArgument("expected key=value, got '" + token +
                                       "'");
      std::string key = token.substr(0, eq);
      std::string value = token.substr(eq + 1);
      char* parse_end = nullptr;
      double number = std::strtod(value.c_str(), &parse_end);
      if (parse_end == value.c_str() || *parse_end != '\0')
        return Status::InvalidArgument("invalid number in '" + token + "'");
      if (key == "k") {
        if (number < 1.0 || number != std::floor(number))
          return Status::InvalidArgument("k must be a positive integer");
        entry.requirement.k = static_cast<uint32_t>(number);
      } else if (key == "amin") {
        entry.requirement.min_area = number;
      } else if (key == "amax") {
        entry.requirement.max_area = number;
      } else {
        return Status::InvalidArgument("unknown profile key '" + key + "'");
      }
    }
    entries.push_back(std::move(entry));
  }
  return Create(std::move(entries));
}

std::string PrivacyProfile::ToString() const {
  std::string out;
  for (const auto& entry : entries_) {
    if (!out.empty()) out += "; ";
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%02d:%02d-%02d:%02d k=%u",
                  entry.interval.start().hour(),
                  entry.interval.start().minute(),
                  entry.interval.end().hour(), entry.interval.end().minute(),
                  entry.requirement.k);
    out += buf;
    if (entry.requirement.min_area > 0.0) {
      std::snprintf(buf, sizeof(buf), " amin=%g", entry.requirement.min_area);
      out += buf;
    }
    if (entry.requirement.max_area !=
        std::numeric_limits<double>::infinity()) {
      std::snprintf(buf, sizeof(buf), " amax=%g", entry.requirement.max_area);
      out += buf;
    }
  }
  return out;
}

PrivacyRequirement PrivacyProfile::Resolve(TimeOfDay t) const {
  for (const auto& e : entries_) {
    if (e.interval.Contains(t)) return e.requirement;
  }
  return PrivacyRequirement{};  // public default
}

bool PrivacyProfile::IsAlwaysPublic() const {
  for (const auto& e : entries_) {
    if (!e.requirement.IsPublic()) return false;
  }
  return true;
}

}  // namespace cloakdb
