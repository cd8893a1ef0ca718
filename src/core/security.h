#ifndef IMPLIANCE_CORE_SECURITY_H_
#define IMPLIANCE_CORE_SECURITY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "model/document.h"

namespace impliance::core {

// Policy-driven access control (Section 4): "information is provided to
// the right people, and only to the right people." Grants are per document
// kind (schema class), the natural policy unit in a system whose schemas
// are discovered rather than declared. The implicit "admin" principal can
// read everything. Thread-safe.
class AccessController {
 public:
  static constexpr const char* kAdmin = "admin";

  void CreatePrincipal(const std::string& principal);
  bool HasPrincipal(const std::string& principal) const;

  // Grants read on `kind` ("*" = every kind) to an existing principal.
  Status GrantRead(const std::string& principal, const std::string& kind);
  Status RevokeRead(const std::string& principal, const std::string& kind);

  // Admin: always. Unknown principals: never.
  bool CanRead(const std::string& principal, const std::string& kind) const;

  std::vector<std::string> Principals() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::set<std::string>> grants_;  // principal -> kinds
};

// Monitoring and auditing (Section 4): every query is recorded with the
// documents it surfaced, so one can "trace ... queries that have accessed"
// a piece of data. Thread-safe. The log keeps the most recent kCapacity
// entries in a fixed ring: memory stays bounded however many queries the
// appliance serves. Sequence numbers stay monotone across evictions, and
// each eviction increments the `audit.evicted` registry counter.
class AuditLog {
 public:
  // About 1.3 MB at ~310 bytes per entry.
  static constexpr size_t kCapacity = 4096;

  struct Entry {
    uint64_t seq = 0;
    std::string principal;
    std::string interface;  // "keyword", "sql", "faceted", "graph", "get"
    std::string query;
    std::vector<model::DocId> docs_accessed;
  };

  // Returns the entry's sequence number.
  uint64_t Record(std::string principal, std::string interface,
                  std::string query, std::vector<model::DocId> docs);

  // Hippocratic-database style disclosure: which retained queries touched
  // `doc`? Oldest first.
  std::vector<Entry> QueriesTouching(model::DocId doc) const;

  std::vector<Entry> ByPrincipal(const std::string& principal) const;

  // Retained entries (at most kCapacity).
  size_t size() const;

 private:
  // Calls `fn` on every retained entry, oldest first. Caller holds mutex_.
  template <typename Fn>
  void ForEachLocked(Fn fn) const {
    const size_t start = entries_.size() < kCapacity ? 0 : next_slot_;
    for (size_t i = 0; i < entries_.size(); ++i) {
      fn(entries_[(start + i) % entries_.size()]);
    }
  }

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;  // ring once it reaches kCapacity
  size_t next_slot_ = 0;        // slot of the oldest entry once full
  uint64_t next_seq_ = 1;
};

}  // namespace impliance::core

#endif  // IMPLIANCE_CORE_SECURITY_H_
