#include "index/posting_block.h"

#include "common/coding.h"
#include "common/logging.h"

namespace impliance::index {

void AppendPosting(PostingBlock* block, model::DocId doc, uint32_t tf,
                   const uint32_t* positions) {
  IMPLIANCE_CHECK(block->count == 0 || doc > block->last_doc)
      << "postings must be appended in ascending doc order";
  IMPLIANCE_CHECK(tf > 0);
  std::string delta;
  PutVarint64(&delta, doc - (block->count == 0 ? 0 : block->last_doc));
  block->bytes.insert(block->docs_end, delta);
  block->docs_end += static_cast<uint32_t>(delta.size());
  block->freqs_end += static_cast<uint32_t>(delta.size());
  std::string freq;
  PutVarint32(&freq, tf);
  block->bytes.insert(block->freqs_end, freq);
  block->freqs_end += static_cast<uint32_t>(freq.size());
  PutVarint32(&block->bytes, tf);
  uint32_t prev = 0;
  for (uint32_t i = 0; i < tf; ++i) {
    PutVarint32(&block->bytes, positions[i] - prev);
    prev = positions[i];
  }
  if (block->count == 0) block->first_doc = doc;
  block->last_doc = doc;
  ++block->count;
  if (tf > block->max_tf) block->max_tf = tf;
}

bool DecodeDocsFreqs(const PostingBlock& block, DecodedBlock* out) {
  out->docs.clear();
  out->freqs.clear();
  out->docs.reserve(block.count);
  out->freqs.reserve(block.count);
  std::string_view dv = block.docs();
  std::string_view fv = block.freqs();
  model::DocId prev = 0;
  for (uint32_t i = 0; i < block.count; ++i) {
    uint64_t delta = 0;
    uint32_t tf = 0;
    if (!GetVarint64(&dv, &delta) || !GetVarint32(&fv, &tf)) return false;
    prev += delta;
    out->docs.push_back(prev);
    out->freqs.push_back(tf);
  }
  return true;
}

bool DecodePositions(const PostingBlock& block, DecodedBlock* out) {
  out->positions.clear();
  out->positions.resize(block.count);
  std::string_view pv = block.positions();
  for (uint32_t i = 0; i < block.count; ++i) {
    uint32_t n = 0;
    if (!GetVarint32(&pv, &n)) return false;
    std::vector<uint32_t>& entry = out->positions[i];
    entry.reserve(n);
    uint32_t prev = 0;
    for (uint32_t j = 0; j < n; ++j) {
      uint32_t delta = 0;
      if (!GetVarint32(&pv, &delta)) return false;
      prev += delta;
      entry.push_back(prev);
    }
  }
  return true;
}

bool BuildPositionOffsets(const PostingBlock& block,
                          std::vector<size_t>* offsets) {
  offsets->clear();
  offsets->reserve(block.count);
  std::string_view pv = block.positions();
  const char* base = pv.data();
  for (uint32_t i = 0; i < block.count; ++i) {
    offsets->push_back(static_cast<size_t>(pv.data() - base));
    uint32_t n = 0;
    if (!GetVarint32(&pv, &n)) return false;
    for (uint32_t j = 0; j < n; ++j) {
      uint32_t delta = 0;
      if (!GetVarint32(&pv, &delta)) return false;
    }
  }
  return true;
}

bool DecodePositionsAt(const PostingBlock& block, size_t byte_offset,
                       std::vector<uint32_t>* out) {
  out->clear();
  std::string_view pv = block.positions();
  if (byte_offset > pv.size()) return false;
  pv.remove_prefix(byte_offset);
  uint32_t n = 0;
  if (!GetVarint32(&pv, &n)) return false;
  out->reserve(n);
  uint32_t prev = 0;
  for (uint32_t j = 0; j < n; ++j) {
    uint32_t delta = 0;
    if (!GetVarint32(&pv, &delta)) return false;
    prev += delta;
    out->push_back(prev);
  }
  return true;
}

}  // namespace impliance::index
