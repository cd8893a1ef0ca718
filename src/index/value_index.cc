#include "index/value_index.h"

#include <algorithm>

#include "model/item.h"

namespace impliance::index {

void ValueIndex::AddDocument(const model::Document& doc) {
  for (const model::PathValue& pv : model::CollectPaths(doc.root)) {
    if (pv.value->is_null()) continue;
    trees_[pv.path].Insert(*pv.value, doc.id);
  }
}

void ValueIndex::RemoveDocument(const model::Document& doc) {
  for (const model::PathValue& pv : model::CollectPaths(doc.root)) {
    if (pv.value->is_null()) continue;
    auto it = trees_.find(pv.path);
    if (it != trees_.end()) it->second.Erase(*pv.value, doc.id);
  }
}

std::vector<model::DocId> ValueIndex::Lookup(std::string_view path,
                                             const model::Value& value) const {
  return Range(path, &value, true, &value, true);
}

std::vector<model::DocId> ValueIndex::Range(std::string_view path,
                                            const model::Value* lo,
                                            bool lo_inclusive,
                                            const model::Value* hi,
                                            bool hi_inclusive) const {
  auto it = trees_.find(path);
  if (it == trees_.end()) return {};
  std::vector<model::DocId> docs;
  it->second.ScanRange(lo, lo_inclusive, hi, hi_inclusive,
                       [&docs](const model::Value&, model::DocId doc) {
                         docs.push_back(doc);
                         return true;
                       });
  std::sort(docs.begin(), docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
  return docs;
}

void ValueIndex::Scan(
    std::string_view path,
    const std::function<bool(const model::Value&, model::DocId)>& fn) const {
  auto it = trees_.find(path);
  if (it == trees_.end()) return;
  it->second.ScanRange(nullptr, true, nullptr, true, fn);
}

std::vector<std::string> ValueIndex::Paths() const {
  std::vector<std::string> paths;
  paths.reserve(trees_.size());
  for (const auto& [path, tree] : trees_) paths.push_back(path);
  return paths;
}

std::vector<ValueIndex::FacetCount> ValueIndex::CountValues(
    std::string_view path, size_t max_values,
    const std::function<bool(model::DocId)>& counted) const {
  std::vector<FacetCount> counts;
  model::DocId last = model::kInvalidDocId;
  bool open = false;  // counts.back() is the value being scanned
  Scan(path, [&](const model::Value& value, model::DocId doc) {
    if (!open || value.Compare(counts.back().value) != 0) {
      if (open && counts.back().count == 0) counts.pop_back();
      counts.push_back(FacetCount{value, 0});
      open = true;
      last = model::kInvalidDocId;
    }
    // A value's entries are ascending by doc, so a document repeating the
    // value (sibling leaves) is adjacent to itself.
    if (doc != last && counted(doc)) ++counts.back().count;
    last = doc;
    return true;
  });
  if (open && counts.back().count == 0) counts.pop_back();
  std::sort(counts.begin(), counts.end(),
            [](const FacetCount& a, const FacetCount& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.value < b.value;
            });
  if (counts.size() > max_values) counts.resize(max_values);
  return counts;
}

std::vector<ValueIndex::FacetCount> ValueIndex::CountFacet(
    std::string_view path, const std::vector<model::DocId>& candidates,
    size_t max_values) const {
  if (candidates.empty()) return {};
  // Membership is tested once per entry of the path. Candidate sets are
  // usually dense id ranges (a whole kind), so a bitmap over their span
  // replaces a binary search per entry.
  const model::DocId lo = candidates.front();
  const model::DocId span = candidates.back() - lo + 1;
  if (span / 64 > candidates.size()) {
    return CountValues(path, max_values, [&candidates](model::DocId doc) {
      return std::binary_search(candidates.begin(), candidates.end(), doc);
    });
  }
  std::vector<bool> member(span);
  for (model::DocId doc : candidates) member[doc - lo] = true;
  return CountValues(path, max_values, [&](model::DocId doc) {
    return doc >= lo && doc - lo < span && member[doc - lo];
  });
}

std::vector<ValueIndex::FacetCount> ValueIndex::CountFacetAll(
    std::string_view path, size_t max_values) const {
  return CountValues(path, max_values, [](model::DocId) { return true; });
}

std::vector<model::DocId> ValueIndex::Restrict(
    std::string_view path, const model::Value& value,
    const std::vector<model::DocId>& candidates) const {
  const std::vector<model::DocId> with_value = Lookup(path, value);
  std::vector<model::DocId> out;
  std::set_intersection(candidates.begin(), candidates.end(),
                        with_value.begin(), with_value.end(),
                        std::back_inserter(out));
  return out;
}

size_t ValueIndex::num_entries() const {
  size_t total = 0;
  for (const auto& [path, tree] : trees_) total += tree.size();
  return total;
}

}  // namespace impliance::index
