#include "storage/document_store.h"

#include <algorithm>
#include <filesystem>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/logging.h"

namespace impliance::storage {

namespace fs = std::filesystem;

DocumentStore::DocumentStore(StoreOptions options)
    : options_(std::move(options)),
      cache_(std::make_unique<BlockCache>(options_.block_cache_bytes)) {}

DocumentStore::~DocumentStore() = default;

std::string DocumentStore::WalPath() const { return options_.dir + "/wal.log"; }

std::string DocumentStore::SegmentPath(uint64_t segment_id) const {
  return options_.dir + "/segment_" + std::to_string(segment_id) + ".seg";
}

Result<std::unique_ptr<DocumentStore>> DocumentStore::Open(
    StoreOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("StoreOptions.dir is required");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("cannot create store dir: " + options.dir);
  }
  auto store = std::unique_ptr<DocumentStore>(new DocumentStore(options));
  IMPLIANCE_RETURN_IF_ERROR(store->RecoverSegments());
  IMPLIANCE_RETURN_IF_ERROR(store->RecoverWal());
  IMPLIANCE_ASSIGN_OR_RETURN(
      store->wal_, WalWriter::Open(store->WalPath(), options.sync_wal));
  return store;
}

Status DocumentStore::RecoverSegments() {
  // Segment files are named segment_<id>.seg; load them in id order so the
  // newest version of a key wins naturally.
  std::vector<uint64_t> segment_ids;
  for (const auto& entry : fs::directory_iterator(options_.dir)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kSuffix = ".seg";
    if (name.rfind("segment_", 0) == 0 && name.size() > 12 &&
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
            0) {
      segment_ids.push_back(
          std::stoull(name.substr(8, name.size() - 8 - 4)));
    }
  }
  std::sort(segment_ids.begin(), segment_ids.end());
  for (uint64_t segment_id : segment_ids) {
    Result<std::unique_ptr<SegmentReader>> opened =
        SegmentReader::Open(SegmentPath(segment_id), segment_id, cache_.get());
    if (opened.status().IsCorruption()) {
      // A torn segment means a crash during flush: the WAL is only
      // truncated AFTER a successful flush, so its contents are still in
      // the log. Quarantine the file and recover from the WAL.
      IMPLIANCE_LOG(Warning) << "quarantining torn segment "
                             << SegmentPath(segment_id) << ": "
                             << opened.status().ToString();
      std::error_code ec;
      fs::rename(SegmentPath(segment_id), SegmentPath(segment_id) + ".bad",
                 ec);
      next_segment_id_ = std::max(next_segment_id_, segment_id + 1);
      continue;
    }
    IMPLIANCE_ASSIGN_OR_RETURN(std::unique_ptr<SegmentReader> reader,
                               std::move(opened));
    for (const VersionKey& key : reader->Keys()) {
      uint32_t& latest = latest_version_[key.id];
      latest = std::max(latest, key.version);
      next_id_ = std::max(next_id_, key.id + 1);
    }
    segments_.push_back(std::move(reader));
    next_segment_id_ = std::max(next_segment_id_, segment_id + 1);
  }
  return Status::OK();
}

Status DocumentStore::RecoverWal() {
  IMPLIANCE_ASSIGN_OR_RETURN(std::vector<std::string> records,
                             ReadWalRecords(WalPath()));
  for (const std::string& record : records) {
    model::Document doc;
    if (!model::Document::Decode(record, &doc)) {
      // Decodable-prefix guarantee comes from the CRC; an undecodable
      // record here means a serialization bug, not a torn write.
      return Status::Corruption("undecodable WAL record");
    }
    VersionKey key{doc.id, doc.version};
    uint32_t& latest = latest_version_[key.id];
    latest = std::max(latest, key.version);
    next_id_ = std::max(next_id_, doc.id + 1);
    memtable_[key] = record;
  }
  return Status::OK();
}

Status DocumentStore::AppendLocked(const model::Document& doc) {
  std::string encoded;
  doc.Encode(&encoded);
  IMPLIANCE_RETURN_IF_ERROR(wal_->Append(encoded));
  wal_bytes_total_ += encoded.size();
  memtable_[VersionKey{doc.id, doc.version}] = std::move(encoded);
  return Status::OK();
}

Result<model::DocId> DocumentStore::Insert(model::Document doc) {
  std::lock_guard<std::mutex> lock(mutex_);
  doc.id = next_id_++;
  doc.version = 1;
  IMPLIANCE_RETURN_IF_ERROR(AppendLocked(doc));
  const model::DocId id = doc.id;
  latest_version_[id] = 1;
  change_epoch_.fetch_add(1, std::memory_order_release);
  if (memtable_.size() >= options_.memtable_max_docs) {
    IMPLIANCE_RETURN_IF_ERROR(FlushLocked());
  }
  return id;
}

Result<uint32_t> DocumentStore::AddVersion(model::DocId id,
                                           model::Document doc) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = latest_version_.find(id);
  if (it == latest_version_.end()) {
    return Status::NotFound("no such document: " + std::to_string(id));
  }
  doc.id = id;
  doc.version = it->second + 1;
  IMPLIANCE_RETURN_IF_ERROR(AppendLocked(doc));
  it->second = doc.version;
  const uint32_t version = doc.version;
  change_epoch_.fetch_add(1, std::memory_order_release);
  if (memtable_.size() >= options_.memtable_max_docs) {
    IMPLIANCE_RETURN_IF_ERROR(FlushLocked());
  }
  return version;
}

Result<model::Document> DocumentStore::Get(model::DocId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = latest_version_.find(id);
  if (it == latest_version_.end()) {
    return Status::NotFound("no such document: " + std::to_string(id));
  }
  return GetLocked(VersionKey{id, it->second});
}

Result<model::Document> DocumentStore::GetVersion(model::DocId id,
                                                  uint32_t version) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return GetLocked(VersionKey{id, version});
}

Result<uint32_t> DocumentStore::LatestVersion(model::DocId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = latest_version_.find(id);
  if (it == latest_version_.end()) {
    return Status::NotFound("no such document: " + std::to_string(id));
  }
  return it->second;
}

Result<model::Document> DocumentStore::GetLocked(const VersionKey& key) const {
  auto mem_it = memtable_.find(key);
  if (mem_it != memtable_.end()) {
    model::Document doc;
    if (!model::Document::Decode(mem_it->second, &doc)) {
      return Status::Corruption("undecodable memtable record");
    }
    return doc;
  }
  // Newest segment first; bloom filters skip most of them.
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    if (!(*it)->MayContain(key)) continue;
    Result<model::Document> result = (*it)->Get(key);
    if (result.ok()) return result;
    if (!result.status().IsNotFound()) return result;  // real error
  }
  return Status::NotFound("version not found: " + std::to_string(key.id) +
                          "@" + std::to_string(key.version));
}

Status DocumentStore::Scan(
    const std::function<bool(const model::Document&)>& fn) const {
  // Snapshot the id->version map so `fn` may call back into the store.
  std::map<model::DocId, uint32_t> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = latest_version_;
  }
  for (const auto& [id, version] : snapshot) {
    Result<model::Document> doc = [&]() -> Result<model::Document> {
      std::lock_guard<std::mutex> lock(mutex_);
      return GetLocked(VersionKey{id, version});
    }();
    if (!doc.ok()) return doc.status();
    if (!fn(doc.value())) break;
  }
  return Status::OK();
}

std::vector<model::DocId> DocumentStore::AllIds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<model::DocId> ids;
  ids.reserve(latest_version_.size());
  for (const auto& [id, version] : latest_version_) ids.push_back(id);
  return ids;
}

Status DocumentStore::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  return FlushLocked();
}

Status DocumentStore::FlushLocked() {
  if (memtable_.empty()) return Status::OK();
  const uint64_t segment_id = next_segment_id_++;
  SegmentBuilder builder(SegmentPath(segment_id), segment_id,
                         memtable_.size(), options_.compress_segments);
  for (const auto& [key, encoded] : memtable_) {
    IMPLIANCE_RETURN_IF_ERROR(builder.Add(key, encoded));
  }
  IMPLIANCE_RETURN_IF_ERROR(builder.Finish());
  IMPLIANCE_ASSIGN_OR_RETURN(
      std::unique_ptr<SegmentReader> reader,
      SegmentReader::Open(SegmentPath(segment_id), segment_id, cache_.get()));
  segments_.push_back(std::move(reader));
  memtable_.clear();
  // The WAL's contents are now durable in the segment; start a fresh log.
  wal_.reset();
  std::error_code ec;
  fs::remove(WalPath(), ec);
  IMPLIANCE_ASSIGN_OR_RETURN(wal_,
                             WalWriter::Open(WalPath(), options_.sync_wal));
  change_epoch_.fetch_add(1, std::memory_order_release);
#if defined(__GLIBC__)
  // Hand freed heap pages back to the OS, as jemalloc's and tcmalloc's
  // background purging would. glibc keeps them resident in each thread's
  // arena: the buffers indexes outgrow as they double, and query
  // temporaries, leave holes that long-lived entries pin, so resident
  // memory tracks the high-water mark rather than live data. Once per
  // flush is often enough to matter and rare enough to cost nothing.
  malloc_trim(0);
#endif
  return Status::OK();
}

Status DocumentStore::Compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  IMPLIANCE_RETURN_IF_ERROR(FlushLocked());
  if (segments_.size() <= 1) return Status::OK();

  const uint64_t segment_id = next_segment_id_++;
  size_t total_keys = 0;
  for (const auto& segment : segments_) total_keys += segment->num_docs();
  SegmentBuilder builder(SegmentPath(segment_id), segment_id, total_keys,
                         options_.compress_segments);
  // Each (id, version) exists in exactly one segment (the WAL is truncated
  // at flush), so a straight copy preserves everything.
  for (const auto& segment : segments_) {
    for (const VersionKey& key : segment->Keys()) {
      IMPLIANCE_ASSIGN_OR_RETURN(model::Document doc, segment->Get(key));
      IMPLIANCE_RETURN_IF_ERROR(builder.Add(doc));
    }
  }
  IMPLIANCE_RETURN_IF_ERROR(builder.Finish());
  IMPLIANCE_ASSIGN_OR_RETURN(
      std::unique_ptr<SegmentReader> merged,
      SegmentReader::Open(SegmentPath(segment_id), segment_id, cache_.get()));

  // Swap in the merged segment, delete the inputs.
  std::vector<uint64_t> old_ids;
  for (const auto& segment : segments_) old_ids.push_back(segment->segment_id());
  segments_.clear();
  segments_.push_back(std::move(merged));
  std::error_code ec;
  for (uint64_t old_id : old_ids) {
    fs::remove(SegmentPath(old_id), ec);
    // Segment ids are never reused, but stale blocks waste cache capacity;
    // evict only this segment's blocks so the merged one keeps its hits.
    cache_->EraseFile(old_id);
  }
  change_epoch_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

StoreStats DocumentStore::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StoreStats stats;
  stats.num_documents = latest_version_.size();
  for (const auto& [id, version] : latest_version_) {
    stats.num_versions += version;
  }
  stats.num_segments = segments_.size();
  stats.memtable_docs = memtable_.size();
  stats.cache_hits = cache_->hits();
  stats.cache_misses = cache_->misses();
  stats.wal_bytes = wal_bytes_total_;
  return stats;
}

}  // namespace impliance::storage
