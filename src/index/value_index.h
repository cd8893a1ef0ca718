#ifndef IMPLIANCE_INDEX_VALUE_INDEX_H_
#define IMPLIANCE_INDEX_VALUE_INDEX_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "index/btree.h"
#include "model/document.h"

namespace impliance::index {

// Ordered index over (path, value) pairs: one B+-tree per document path.
// Together with the path index this realizes "automatically indexes each
// document by its values as well as its structures" (Section 3.2) — every
// leaf value of every document is indexed without any CREATE INDEX. It also
// answers facet counts and drill-downs (FacetIndex is this class).
//
// Not internally synchronized.
class ValueIndex {
 public:
  // Indexes every non-null leaf (path, value) of `doc`.
  void AddDocument(const model::Document& doc);

  // Removes the entries of `doc` (exact same tree must be passed, i.e. the
  // version that was added).
  void RemoveDocument(const model::Document& doc);

  // Documents where `path` has exactly `value`, ascending, deduplicated.
  std::vector<model::DocId> Lookup(std::string_view path,
                                   const model::Value& value) const;

  // Documents where `path` falls in [lo, hi] (nullptr = unbounded),
  // ascending, deduplicated.
  std::vector<model::DocId> Range(std::string_view path,
                                  const model::Value* lo, bool lo_inclusive,
                                  const model::Value* hi,
                                  bool hi_inclusive) const;

  // Visits (value, doc) pairs of `path` in value order.
  void Scan(std::string_view path,
            const std::function<bool(const model::Value&, model::DocId)>& fn)
      const;

  // All indexed paths, sorted.
  std::vector<std::string> Paths() const;

  // ---- Facets (Section 3.2.1).
  struct FacetCount {
    model::Value value;
    size_t count = 0;  // documents, each counted once per value
  };

  // Value distribution of `path` over `candidates` (sorted doc ids),
  // descending by count then ascending by value. At most `max_values`.
  std::vector<FacetCount> CountFacet(std::string_view path,
                                     const std::vector<model::DocId>& candidates,
                                     size_t max_values) const;

  // Value distribution of `path` over the whole corpus.
  std::vector<FacetCount> CountFacetAll(std::string_view path,
                                        size_t max_values) const;

  // Members of `candidates` (sorted) whose `path` equals `value`
  // (drill-down).
  std::vector<model::DocId> Restrict(std::string_view path,
                                     const model::Value& value,
                                     const std::vector<model::DocId>&
                                         candidates) const;

  // All documents with `path` == `value`, ascending.
  std::vector<model::DocId> DocsWithValue(std::string_view path,
                                          const model::Value& value) const {
    return Lookup(path, value);
  }

  size_t num_paths() const { return trees_.size(); }
  size_t num_entries() const;

 private:
  // Counts per value the distinct documents `counted` accepts; one ordered
  // scan of the path.
  std::vector<FacetCount> CountValues(
      std::string_view path, size_t max_values,
      const std::function<bool(model::DocId)>& counted) const;

  std::map<std::string, BPlusTree, std::less<>> trees_;
};

}  // namespace impliance::index

#endif  // IMPLIANCE_INDEX_VALUE_INDEX_H_
