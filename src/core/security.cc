#include "core/security.h"

#include <algorithm>

#include "obs/metrics.h"

namespace impliance::core {

void AccessController::CreatePrincipal(const std::string& principal) {
  std::lock_guard<std::mutex> lock(mutex_);
  grants_.try_emplace(principal);
}

bool AccessController::HasPrincipal(const std::string& principal) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return principal == kAdmin || grants_.count(principal) > 0;
}

Status AccessController::GrantRead(const std::string& principal,
                                   const std::string& kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = grants_.find(principal);
  if (it == grants_.end()) {
    return Status::NotFound("no such principal: " + principal);
  }
  it->second.insert(kind);
  return Status::OK();
}

Status AccessController::RevokeRead(const std::string& principal,
                                    const std::string& kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = grants_.find(principal);
  if (it == grants_.end()) {
    return Status::NotFound("no such principal: " + principal);
  }
  it->second.erase(kind);
  return Status::OK();
}

bool AccessController::CanRead(const std::string& principal,
                               const std::string& kind) const {
  if (principal == kAdmin) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = grants_.find(principal);
  if (it == grants_.end()) return false;
  return it->second.count("*") > 0 || it->second.count(kind) > 0;
}

std::vector<std::string> AccessController::Principals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> principals;
  principals.reserve(grants_.size());
  for (const auto& [principal, kinds] : grants_) {
    principals.push_back(principal);
  }
  return principals;
}

uint64_t AuditLog::Record(std::string principal, std::string interface,
                          std::string query,
                          std::vector<model::DocId> docs) {
  static obs::Counter* const evicted =
      obs::Registry::Global().GetCounter("audit.evicted");
  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.seq = next_seq_++;
  entry.principal = std::move(principal);
  entry.interface = std::move(interface);
  entry.query = std::move(query);
  entry.docs_accessed = std::move(docs);
  if (entries_.size() < kCapacity) {
    entries_.push_back(std::move(entry));
  } else {
    entries_[next_slot_] = std::move(entry);
    next_slot_ = (next_slot_ + 1) % kCapacity;
    evicted->Increment();
  }
  return next_seq_ - 1;
}

std::vector<AuditLog::Entry> AuditLog::QueriesTouching(
    model::DocId doc) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> matching;
  ForEachLocked([&](const Entry& entry) {
    if (std::find(entry.docs_accessed.begin(), entry.docs_accessed.end(),
                  doc) != entry.docs_accessed.end()) {
      matching.push_back(entry);
    }
  });
  return matching;
}

std::vector<AuditLog::Entry> AuditLog::ByPrincipal(
    const std::string& principal) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> matching;
  ForEachLocked([&](const Entry& entry) {
    if (entry.principal == principal) matching.push_back(entry);
  });
  return matching;
}

size_t AuditLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace impliance::core
