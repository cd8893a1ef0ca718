#ifndef IMPLIANCE_STORAGE_DOCUMENT_STORE_H_
#define IMPLIANCE_STORAGE_DOCUMENT_STORE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "model/document.h"
#include "storage/block_cache.h"
#include "storage/segment.h"
#include "storage/wal.h"

namespace impliance::storage {

struct StoreOptions {
  std::string dir;                      // created if missing
  size_t memtable_max_docs = 4096;      // flush threshold
  size_t block_cache_bytes = 32 << 20;  // shared across segments
  bool sync_wal = false;                // fflush per record
  bool compress_segments = false;       // LZ-compress flushed records
};

struct StoreStats {
  size_t num_documents = 0;   // latest versions
  size_t num_versions = 0;    // all versions
  size_t num_segments = 0;
  size_t memtable_docs = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t wal_bytes = 0;
};

// Single-node versioned document store (Sections 3.2 and 4): documents are
// immutable once persisted; logical updates append a new version; nothing is
// ever overwritten in place. Durability comes from a write-ahead log that is
// replayed on open; flushed memtables become immutable segment files with
// per-segment bloom filters, read through a shared LRU block cache.
//
// Thread-safe: a single mutex guards the memtable and segment list; segment
// reads are served concurrently through the readers' own synchronization.
class DocumentStore {
 public:
  static Result<std::unique_ptr<DocumentStore>> Open(StoreOptions options);
  ~DocumentStore();

  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;

  // Persists `doc` as a brand-new document; assigns and returns its id
  // (doc.id/doc.version are overwritten with id/1).
  Result<model::DocId> Insert(model::Document doc);

  // Appends a new immutable version of an existing document and returns the
  // new version number. NotFound if `id` was never inserted.
  Result<uint32_t> AddVersion(model::DocId id, model::Document doc);

  // Latest version of `id`.
  Result<model::Document> Get(model::DocId id) const;

  // Specific historical version ("time travel").
  Result<model::Document> GetVersion(model::DocId id, uint32_t version) const;

  // Latest version number of `id`, or NotFound.
  Result<uint32_t> LatestVersion(model::DocId id) const;

  // Invokes `fn` with the latest version of every document, in id order.
  // Stops early if `fn` returns false.
  Status Scan(const std::function<bool(const model::Document&)>& fn) const;

  // All document ids, in order.
  std::vector<model::DocId> AllIds() const;

  // Forces the memtable into a new segment and truncates the WAL.
  Status Flush();

  // Merges every segment (after flushing the memtable) into one new
  // segment. All versions are preserved — compaction reclaims file count
  // and read amplification, never history (Section 4's immutability).
  Status Compact();

  StoreStats GetStats() const;

  // Monotone change counter bumped by every mutation (insert, new version,
  // memtable flush, compaction). The query layer's statistics cache keys
  // its per-table snapshots on this epoch, so optimizer statistics are
  // recollected exactly when the stored data actually changed — they can
  // never silently go stale the way manually ANALYZEd stats do.
  uint64_t change_epoch() const {
    return change_epoch_.load(std::memory_order_acquire);
  }

 private:
  explicit DocumentStore(StoreOptions options);

  Status RecoverSegments();
  Status RecoverWal();
  // Encodes `doc`, appends it to the WAL, and keeps it in the memtable.
  Status AppendLocked(const model::Document& doc);
  Status FlushLocked();
  Result<model::Document> GetLocked(const VersionKey& key) const;
  std::string WalPath() const;
  std::string SegmentPath(uint64_t segment_id) const;

  StoreOptions options_;
  mutable std::mutex mutex_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<WalWriter> wal_;
  // Unflushed versions, as Document::Encode bytes: one allocation each,
  // where a decoded document is a tree of them.
  std::map<VersionKey, std::string> memtable_;
  std::vector<std::unique_ptr<SegmentReader>> segments_;  // oldest first
  std::map<model::DocId, uint32_t> latest_version_;
  model::DocId next_id_ = 1;
  uint64_t next_segment_id_ = 1;
  uint64_t wal_bytes_total_ = 0;
  std::atomic<uint64_t> change_epoch_{0};
};

}  // namespace impliance::storage

#endif  // IMPLIANCE_STORAGE_DOCUMENT_STORE_H_
