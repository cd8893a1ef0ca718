#ifndef IMPLIANCE_INDEX_POSTING_BLOCK_H_
#define IMPLIANCE_INDEX_POSTING_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "model/document.h"

namespace impliance::index {

// One fixed-capacity block of a compressed posting list. Doc ids are
// delta+varint encoded (the first id in a block is absolute), term
// frequencies are one varint each, and token positions are a varint count
// followed by delta+varint offsets per posting. Alongside the bytes each
// block carries skip metadata — first/last doc id and the block-max
// ingredients (max_tf, min_len) — so readers can decide whether to decode
// or skip a whole block from the metadata alone. The three streams share
// one buffer: a block of one short posting (a term only one document has,
// like an id or a reference token) then needs no allocation beyond the
// block itself.
//
// Block-max invariant: for every posting in the block, tf <= max_tf and
// doc_len >= min_len, so BM25(max_tf, min_len) computed with the current
// idf/avg-length upper-bounds every posting's contribution. Removals keep
// the invariant without touching metadata (a stale max_tf/min_len is
// merely looser, never wrong); `dirty` marks blocks whose bounds may be
// loose so the owner can re-tighten them lazily.
struct PostingBlock {
  // Append path cuts a new block at this many postings.
  static constexpr uint32_t kTargetPostings = 128;
  // Out-of-order inserts may grow a block past the target; a rewrite
  // splits it once it exceeds this.
  static constexpr uint32_t kMaxPostings = 192;

  // docs | freqs | positions, back to back:
  //   docs:      delta+varint doc ids (first absolute)
  //   freqs:     varint term frequency per posting
  //   positions: per posting, varint count then delta+varint offsets
  std::string bytes;
  uint32_t docs_end = 0;   // end of docs in `bytes`
  uint32_t freqs_end = 0;  // end of freqs in `bytes`

  model::DocId first_doc = 0;
  model::DocId last_doc = 0;
  uint32_t count = 0;

  uint32_t max_tf = 0;   // >= every tf in the block
  uint32_t min_len = 0;  // <= every posting's doc length; 0 = unknown
  bool dirty = false;    // bounds may be loose (tightened lazily)

  std::string_view docs() const {
    return std::string_view(bytes).substr(0, docs_end);
  }
  std::string_view freqs() const {
    return std::string_view(bytes).substr(docs_end, freqs_end - docs_end);
  }
  std::string_view positions() const {
    return std::string_view(bytes).substr(freqs_end);
  }
};

// Struct-of-arrays view of one decoded block.
struct DecodedBlock {
  std::vector<model::DocId> docs;
  std::vector<uint32_t> freqs;
  std::vector<std::vector<uint32_t>> positions;  // only via DecodePositions
};

// Appends one posting (doc must exceed last_doc; positions ascending).
// Maintains first/last/count/max_tf; doc length bookkeeping is separate
// (NotePostingDocLen) because rewrite paths do not always know lengths.
void AppendPosting(PostingBlock* block, model::DocId doc, uint32_t tf,
                   const uint32_t* positions);

// Folds one posting's doc length into min_len.
inline void NotePostingDocLen(PostingBlock* block, uint32_t doc_len) {
  if (block->min_len == 0 || doc_len < block->min_len) {
    block->min_len = doc_len;
  }
}

// Decodes doc ids + term frequencies. Returns false on malformed bytes
// (cannot happen for blocks this process encoded; callers CHECK).
bool DecodeDocsFreqs(const PostingBlock& block, DecodedBlock* out);

// Decodes every posting's position list into out->positions.
bool DecodePositions(const PostingBlock& block, DecodedBlock* out);

// Byte offset of each posting's entry within block.positions(), so a single
// posting's positions can be decoded without scanning its predecessors
// again (phrase verification decodes a few postings per block).
bool BuildPositionOffsets(const PostingBlock& block,
                          std::vector<size_t>* offsets);

// Decodes the position list starting at `byte_offset` (from
// BuildPositionOffsets) into *out (cleared first).
bool DecodePositionsAt(const PostingBlock& block, size_t byte_offset,
                       std::vector<uint32_t>* out);

}  // namespace impliance::index

#endif  // IMPLIANCE_INDEX_POSTING_BLOCK_H_
