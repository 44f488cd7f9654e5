#include "reference.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace qbench {

using bayescrowd::Result;
using bayescrowd::Status;
using bayescrowd::obs::JsonValue;

std::string AnswerDigest(const std::vector<std::size_t>& sorted_ids) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::size_t id : sorted_ids) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (static_cast<std::uint64_t>(id) >> (8 * byte)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

Result<ReferenceSet> LoadReference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("qbench: cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = JsonValue::Parse(text.str());
  if (!parsed.ok()) return parsed.status();
  const JsonValue* queries = parsed.value().Find("queries");
  if (queries == nullptr || queries->kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("qbench: " + path + " has no queries");
  }
  ReferenceSet reference;
  for (const auto& [key, entry] : queries->members()) {
    const JsonValue* ids = entry.Find("ids");
    const JsonValue* f1 = entry.Find("f1");
    const JsonValue* digest = entry.Find("digest");
    if (ids == nullptr || f1 == nullptr || digest == nullptr) {
      return Status::InvalidArgument("qbench: incomplete entry " + key);
    }
    ReferenceAnswer answer;
    for (std::size_t i = 0; i < ids->size(); ++i) {
      answer.ids.push_back(static_cast<std::size_t>(ids->at(i).AsInt()));
    }
    answer.f1 = f1->AsDouble();
    if (AnswerDigest(answer.ids) != digest->AsString()) {
      return Status::InvalidArgument("qbench: digest mismatch in " + key);
    }
    reference[key] = std::move(answer);
  }
  return reference;
}

Status SaveReference(const ReferenceSet& reference, const std::string& path) {
  JsonValue queries = JsonValue::Object();
  for (const auto& [key, answer] : reference) {
    JsonValue entry = JsonValue::Object();
    entry["digest"] = AnswerDigest(answer.ids);
    entry["f1"] = answer.f1;
    entry["size"] = answer.ids.size();
    JsonValue ids = JsonValue::Array();
    for (std::size_t id : answer.ids) ids.Append(id);
    entry["ids"] = std::move(ids);
    queries[key] = std::move(entry);
  }
  JsonValue doc = JsonValue::Object();
  doc["format"] = 1;
  doc["queries"] = std::move(queries);
  std::ofstream out(path);
  out << doc.Dump(1) << "\n";
  out.close();
  if (!out) return Status::IOError("qbench: cannot write " + path);
  return Status::OK();
}

std::string DescribeMismatch(const ReferenceAnswer& expected,
                             const std::vector<std::size_t>& ids,
                             double f1) {
  const std::size_t common = std::min(expected.ids.size(), ids.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (expected.ids[i] != ids[i]) {
      return "first differing object id " +
             std::to_string(std::min(expected.ids[i], ids[i])) +
             (expected.ids[i] < ids[i] ? " (missing from answer)"
                                       : " (not in reference)");
    }
  }
  if (expected.ids.size() > common) {
    return "first differing object id " +
           std::to_string(expected.ids[common]) + " (missing from answer)";
  }
  if (ids.size() > common) {
    return "first differing object id " + std::to_string(ids[common]) +
           " (not in reference)";
  }
  if (std::fabs(expected.f1 - f1) > 1e-12) {
    return "same answer set but F1 " + std::to_string(f1) + " vs " +
           std::to_string(expected.f1);
  }
  return "";
}

}  // namespace qbench
