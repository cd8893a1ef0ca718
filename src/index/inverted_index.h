#ifndef IMPLIANCE_INDEX_INVERTED_INDEX_H_
#define IMPLIANCE_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/posting_block.h"
#include "model/document.h"

namespace impliance::index {

// Interned term identifier: index into the term table. Ids are stable for
// the life of the index (a term whose postings all vanish keeps its id).
using TermId = uint32_t;

// Positional full-text inverted index with BM25 ranking. Built from scratch
// (the paper would embed Lucene/Indri but notes the need to extend them);
// supports the two properties Section 3.3 calls out: incremental
// maintenance as annotation documents stream in, and top-k retrieval for
// the keyword interface.
//
// Storage: a term dictionary interns terms to TermIds (an open-addressing
// table of ids over one buffer of term characters, so a term that occurs
// once — an id, a reference token — costs its bytes plus a few, not a hash
// node holding a std::string); each term owns a
// block-compressed posting list — fixed-size blocks (~128 postings) of
// delta+varint doc ids, varint term frequencies, and delta+varint token
// positions, with per-block skip metadata (last_doc, block-max BM25
// ingredients). The forward index (doc -> distinct TermIds) makes document
// removal — needed when a new version supersedes an old one — a targeted
// physical delete rather than a tombstone.
//
// Serving: Search runs document-at-a-time top-k with MaxScore/block-max
// early termination — once the k-heap's threshold exceeds a term's score
// ceiling the term is only probed, and whole blocks are skipped from
// metadata alone. SearchExhaustive keeps the straight-line scorer as the
// reference path (equivalence tests and benchmark baseline).
//
// Not internally synchronized; callers serialize writes against reads.
// Concurrent reads are safe (Search/SearchAll/SearchPhrase never mutate).
class InvertedIndex {
 public:
  struct SearchResult {
    model::DocId doc = model::kInvalidDocId;
    double score = 0.0;
  };

  // Per-query work counters, filled by the stats overloads so tests and
  // benches can see early-termination effectiveness without the process-
  // wide metrics registry.
  struct SearchStats {
    uint64_t postings_scored = 0;  // postings whose BM25 term was evaluated
    uint64_t blocks_decoded = 0;
    uint64_t blocks_skipped = 0;   // blocks passed over without decoding
  };

  // Tokenizes `text` and appends postings for document `id`. A document may
  // be indexed once; to replace it (new version), Remove then Add.
  void AddDocument(model::DocId id, std::string_view text);

  // Physically removes every posting of `id`. No-op for unknown ids.
  void RemoveDocument(model::DocId id);

  bool ContainsDocument(model::DocId id) const {
    return docs_.count(id) > 0;
  }

  // Optional accept-predicate for Search: only documents it accepts are
  // ranked. Empty = every document. The top-k is exactly the top-k of the
  // accepted documents; rejecting documents never invalidates the
  // block-max bounds, which only over-estimate.
  using DocFilter = std::function<bool(model::DocId)>;

  // Disjunctive BM25 top-k with block-max early termination. Ties broken
  // by doc id (ascending) so results are deterministic.
  std::vector<SearchResult> Search(std::string_view query, size_t k,
                                   const DocFilter& accept = {}) const;
  std::vector<SearchResult> Search(std::string_view query, size_t k,
                                   SearchStats* stats,
                                   const DocFilter& accept = {}) const;

  // Reference scorer: exhaustively evaluates every posting of every query
  // term. Same contract as Search; exists as the equivalence oracle and
  // benchmark baseline for the early-termination path.
  std::vector<SearchResult> SearchExhaustive(std::string_view query,
                                             size_t k) const;

  // Conjunctive match: ids of documents containing every query term,
  // ascending. Unranked. Galloping skip-based intersection.
  std::vector<model::DocId> SearchAll(std::string_view query) const;
  std::vector<model::DocId> SearchAll(std::string_view query,
                                      SearchStats* stats) const;

  // Exact phrase match using token positions.
  std::vector<model::DocId> SearchPhrase(std::string_view phrase) const;

  // Documents containing `term` (single token), ascending.
  std::vector<model::DocId> DocsWithTerm(std::string_view term) const;

  size_t num_documents() const { return docs_.size(); }
  // Terms with at least one live posting.
  size_t num_terms() const { return live_terms_; }
  uint64_t num_postings() const { return num_postings_; }
  // Posting blocks across all terms (storage shape, for tests/bench).
  size_t num_blocks() const;
  // Blocks whose block-max metadata is pending a lazy re-tighten.
  size_t num_dirty_blocks() const;

 private:
  struct TermPostings {
    std::vector<PostingBlock> blocks;
    uint32_t doc_count = 0;  // live postings (== docs) in this list
    bool queued_dirty = false;
  };

  // One indexed document: its token count (the BM25 length) and its
  // distinct terms (the forward index, for targeted removal). Up to two
  // term ids are kept inline, so a short document costs one hash node.
  class DocEntry {
   public:
    DocEntry(uint32_t length, const std::vector<TermId>& terms);
    ~DocEntry();
    DocEntry(DocEntry&& other) noexcept;
    DocEntry& operator=(DocEntry&&) = delete;
    DocEntry(const DocEntry&) = delete;
    DocEntry& operator=(const DocEntry&) = delete;

    uint32_t length() const { return length_; }
    const TermId* begin() const { return inline_terms() ? inline_ : heap_; }
    const TermId* end() const { return begin() + num_terms_; }

   private:
    static constexpr uint32_t kInline = 2;
    bool inline_terms() const { return num_terms_ <= kInline; }

    uint32_t length_;
    uint32_t num_terms_;
    union {
      TermId inline_[kInline];
      TermId* heap_;
    };
  };

  double Idf(size_t doc_freq) const;
  double AvgDocLen() const;

  TermId InternTerm(std::string_view term);
  // kNoTerm when the term was never seen.
  TermId FindTerm(std::string_view term) const;
  std::string_view TermText(TermId tid) const {
    return std::string_view(term_chars_)
        .substr(term_offsets_[tid], term_offsets_[tid + 1] - term_offsets_[tid]);
  }
  // The dictionary slot holding `term`, or the empty slot where it belongs.
  size_t TermSlot(std::string_view term) const;
  // Doubles the slot table and re-inserts every term.
  void GrowTermSlots();

  // Unique query terms that have live postings (unknown terms dropped —
  // disjunctive semantics).
  std::vector<TermId> LiveQueryTerms(std::string_view query) const;
  // Unique query terms; false when any token has no live postings
  // (conjunctive semantics: the result is necessarily empty).
  bool RequiredQueryTerms(std::string_view query,
                          std::vector<TermId>* out) const;
  // Terms in token order, duplicates preserved (phrase semantics); false
  // when any token has no live postings.
  bool OrderedQueryTerms(std::string_view phrase,
                         std::vector<TermId>* out) const;

  // Inserts a posting (append fast path; out-of-order ids rewrite the one
  // affected block, splitting it if it outgrows kMaxPostings).
  void InsertPosting(TermId tid, model::DocId doc,
                     const std::vector<uint32_t>& positions,
                     uint32_t doc_len);
  // Physically deletes `doc` from `tid`'s list, rewriting its block. The
  // rewritten block keeps loose-but-valid block-max bounds and is queued
  // for a lazy exact refresh.
  void RemovePosting(TermId tid, model::DocId doc);
  // Re-tightens block-max metadata for a bounded number of queued-dirty
  // terms; called from the write paths so Search stays const and
  // race-free under concurrent readers.
  void RefreshDirtyTerms();

  static constexpr TermId kNoTerm = ~TermId{0};

  // Term t's characters are term_chars_[term_offsets_[t], term_offsets_[t+1]).
  std::string term_chars_;
  std::vector<uint32_t> term_offsets_{0};
  // Linear-probing table of term ids (kNoTerm = empty), a power of two in
  // size, at most 3/4 full.
  std::vector<TermId> term_slots_;
  // Indexed by TermId. A deque: growing never copies the table.
  std::deque<TermPostings> terms_;
  std::vector<TermId> dirty_terms_;  // FIFO of lists with dirty blocks
  std::unordered_map<model::DocId, DocEntry> docs_;
  uint64_t total_tokens_ = 0;
  uint64_t num_postings_ = 0;
  size_t live_terms_ = 0;
};

}  // namespace impliance::index

#endif  // IMPLIANCE_INDEX_INVERTED_INDEX_H_
