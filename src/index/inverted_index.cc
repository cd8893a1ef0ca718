#include "index/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace impliance::index {

namespace {

constexpr double kBm25K1 = 1.2;
constexpr double kBm25B = 0.75;
constexpr model::DocId kSentinelDoc = std::numeric_limits<model::DocId>::max();

// Safety margin for floating-point pruning: a document is abandoned only
// when its score ceiling is at least this far below the heap threshold, so
// summation-order rounding (~1 ulp) can never prune a doc the exhaustive
// scorer would keep. Docs inside the margin are scored fully, which costs
// nothing measurable and keeps block-max top-k ≡ exhaustive top-k.
constexpr double kPruneEpsilon = 1e-6;

double Bm25(double tf, double doc_len, double idf, double avg_len) {
  const double denom =
      tf + kBm25K1 * (1.0 - kBm25B + kBm25B * doc_len / avg_len);
  return idf * tf * (kBm25K1 + 1.0) / denom;
}

// Per-posting score ceiling for a block: BM25 is increasing in tf and
// decreasing in doc length, so (max_tf, min_len) dominates every posting.
// min_len == 0 means unknown, which degenerates to the largest bound.
double BlockBound(const PostingBlock& block, double idf, double avg_len) {
  return Bm25(static_cast<double>(block.max_tf),
              static_cast<double>(block.min_len), idf, avg_len);
}

// First block whose last_doc can contain `doc`.
size_t FindBlockIndex(const std::vector<PostingBlock>& blocks,
                      model::DocId doc) {
  auto it = std::lower_bound(
      blocks.begin(), blocks.end(), doc,
      [](const PostingBlock& b, model::DocId d) { return b.last_doc < d; });
  return static_cast<size_t>(it - blocks.begin());
}

// Re-encodes a decoded (and already modified) block into one block, or an
// even split when it outgrew kMaxPostings. `carried_min_len` is a valid
// lower bound on every entry's doc length (carried from the source block,
// folded with any newly inserted doc); `dirty` marks the bounds as
// possibly loose so the owner re-tightens them lazily.
std::vector<PostingBlock> EncodeChunks(const DecodedBlock& dec,
                                       uint32_t carried_min_len, bool dirty) {
  const size_t total = dec.docs.size();
  IMPLIANCE_CHECK(total > 0);
  const size_t num_chunks =
      total <= PostingBlock::kMaxPostings
          ? 1
          : (total + PostingBlock::kTargetPostings - 1) /
                PostingBlock::kTargetPostings;
  const size_t chunk_size = (total + num_chunks - 1) / num_chunks;
  std::vector<PostingBlock> out;
  out.reserve(num_chunks);
  for (size_t start = 0; start < total; start += chunk_size) {
    const size_t end = std::min(total, start + chunk_size);
    PostingBlock block;
    for (size_t i = start; i < end; ++i) {
      AppendPosting(&block, dec.docs[i],
                    static_cast<uint32_t>(dec.positions[i].size()),
                    dec.positions[i].data());
    }
    block.min_len = carried_min_len;
    block.dirty = dirty;
    out.push_back(std::move(block));
  }
  return out;
}

// Forward-only reader over one term's block list. Skips whole blocks from
// metadata (first_doc/last_doc) and only decodes a block when a posting
// inside it is actually needed. Invariant: when the current block is not
// decoded, doc() == that block's first_doc.
class Cursor {
 public:
  Cursor(TermId tid, const std::vector<PostingBlock>* blocks,
         uint64_t doc_count, double idf, double avg_len,
         InvertedIndex::SearchStats* stats)
      : tid_(tid),
        blocks_(blocks),
        doc_count_(doc_count),
        idf_(idf),
        avg_len_(avg_len),
        stats_(stats) {
    doc_ = blocks_->empty() ? kSentinelDoc : (*blocks_)[0].first_doc;
    for (const PostingBlock& b : *blocks_) {
      term_bound_ = std::max(term_bound_, BlockBound(b, idf_, avg_len_));
    }
  }

  TermId tid() const { return tid_; }
  model::DocId doc() const { return doc_; }
  bool AtEnd() const { return doc_ == kSentinelDoc; }
  double term_bound() const { return term_bound_; }
  uint64_t doc_count() const { return doc_count_; }

  double ScoreAt(double doc_len) {
    EnsureDecoded();
    return Bm25(static_cast<double>(dec_.freqs[i_]), doc_len, idf_, avg_len_);
  }

  void Next() {
    if (AtEnd()) return;
    EnsureDecoded();
    ++i_;
    if (i_ < dec_.docs.size()) {
      doc_ = dec_.docs[i_];
      return;
    }
    ++block_;
    decoded_ = false;
    i_ = 0;
    doc_ =
        block_ < blocks_->size() ? (*blocks_)[block_].first_doc : kSentinelDoc;
  }

  // Advances to the first posting with doc id >= target.
  void SeekTo(model::DocId target) {
    if (doc_ >= target) return;  // covers AtEnd
    const std::vector<PostingBlock>& blocks = *blocks_;
    if (blocks[block_].last_doc < target) {
      auto it = std::lower_bound(
          blocks.begin() + static_cast<ptrdiff_t>(block_) + 1, blocks.end(),
          target, [](const PostingBlock& b, model::DocId d) {
            return b.last_doc < d;
          });
      const size_t nb = static_cast<size_t>(it - blocks.begin());
      if (stats_ != nullptr) {
        // Blocks in [block_, nb) are left behind; all but a decoded
        // current block were skipped purely from metadata.
        stats_->blocks_skipped += (nb - block_) - (decoded_ ? 1 : 0);
      }
      block_ = nb;
      decoded_ = false;
      i_ = 0;
      if (block_ == blocks.size()) {
        doc_ = kSentinelDoc;
        return;
      }
      if (blocks[block_].first_doc >= target) {
        doc_ = blocks[block_].first_doc;
        return;
      }
    }
    // Target lies inside the current block (last_doc >= target).
    EnsureDecoded();
    // Gallop forward from the current posting, then binary-search the
    // bracketed range; intersections over clustered ids stay near O(1).
    size_t lo = i_;
    size_t step = 1;
    while (lo + step < dec_.docs.size() && dec_.docs[lo + step] < target) {
      lo += step;
      step *= 2;
    }
    const size_t hi = std::min(dec_.docs.size(), lo + step + 1);
    auto pit = std::lower_bound(dec_.docs.begin() + static_cast<ptrdiff_t>(lo),
                                dec_.docs.begin() + static_cast<ptrdiff_t>(hi),
                                target);
    i_ = static_cast<size_t>(pit - dec_.docs.begin());
    IMPLIANCE_CHECK(i_ < dec_.docs.size());
    doc_ = dec_.docs[i_];
  }

  // Score ceiling of this term for doc `target` without decoding anything:
  // the block-max bound of the one block that could contain it, or 0 when
  // the cursor already proves the doc absent. Never moves the cursor.
  double UpperBoundFor(model::DocId target) const {
    if (AtEnd() || doc_ > target) return 0.0;
    const std::vector<PostingBlock>& blocks = *blocks_;
    if (blocks[block_].last_doc >= target) {
      return BlockBound(blocks[block_], idf_, avg_len_);
    }
    auto it = std::lower_bound(
        blocks.begin() + static_cast<ptrdiff_t>(block_) + 1, blocks.end(),
        target, [](const PostingBlock& b, model::DocId d) {
          return b.last_doc < d;
        });
    if (it == blocks.end() || it->first_doc > target) return 0.0;
    return BlockBound(*it, idf_, avg_len_);
  }

  // Token positions of the current posting (cursor must sit on a real
  // posting). Position entries are located once per block via an offsets
  // table, so repeated candidates in one block decode in O(entry) instead
  // of rescanning the whole positions buffer.
  void CurrentPositions(std::vector<uint32_t>* out) {
    EnsureDecoded();
    const PostingBlock& b = (*blocks_)[block_];
    if (!pos_offsets_valid_) {
      IMPLIANCE_CHECK(BuildPositionOffsets(b, &pos_offsets_));
      pos_offsets_valid_ = true;
    }
    IMPLIANCE_CHECK(DecodePositionsAt(b, pos_offsets_[i_], out));
  }

 private:
  void EnsureDecoded() {
    if (decoded_) return;
    IMPLIANCE_CHECK(block_ < blocks_->size());
    IMPLIANCE_CHECK(DecodeDocsFreqs((*blocks_)[block_], &dec_));
    decoded_ = true;
    pos_offsets_valid_ = false;
    i_ = 0;
    if (stats_ != nullptr) ++stats_->blocks_decoded;
  }

  TermId tid_;
  const std::vector<PostingBlock>* blocks_;
  uint64_t doc_count_;
  double idf_;
  double avg_len_;
  double term_bound_ = 0.0;
  size_t block_ = 0;
  size_t i_ = 0;
  bool decoded_ = false;
  model::DocId doc_ = kSentinelDoc;
  DecodedBlock dec_;
  std::vector<size_t> pos_offsets_;
  bool pos_offsets_valid_ = false;
  InvertedIndex::SearchStats* stats_;
};

// Registry metrics resolved once; recording is then lock-free on the
// serving hot path (same pattern as the server's per-op histograms).
obs::BoundedHistogram* SearchLatencyHistogram() {
  static obs::BoundedHistogram* h =
      obs::Registry::Global().GetHistogram("index.search.latency_us");
  return h;
}
obs::Counter* PostingsScoredCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("index.search.postings_scored");
  return c;
}
obs::Counter* BlocksSkippedCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("index.search.blocks_skipped");
  return c;
}

}  // namespace

// ------------------------------------------------------------ maintenance

InvertedIndex::DocEntry::DocEntry(uint32_t length,
                                  const std::vector<TermId>& terms)
    : length_(length), num_terms_(static_cast<uint32_t>(terms.size())) {
  if (!inline_terms()) heap_ = new TermId[num_terms_];
  std::copy(terms.begin(), terms.end(), inline_terms() ? inline_ : heap_);
}

InvertedIndex::DocEntry::~DocEntry() {
  if (!inline_terms()) delete[] heap_;
}

InvertedIndex::DocEntry::DocEntry(DocEntry&& other) noexcept
    : length_(other.length_), num_terms_(other.num_terms_) {
  if (inline_terms()) {
    std::copy(other.inline_, other.inline_ + num_terms_, inline_);
  } else {
    heap_ = other.heap_;
    other.num_terms_ = 0;  // the heap array is ours now
  }
}

void InvertedIndex::AddDocument(model::DocId id, std::string_view text) {
  IMPLIANCE_CHECK(docs_.find(id) == docs_.end())
      << "document " << id << " already indexed";

  // Group positions per interned term; one posting per distinct term.
  std::unordered_map<TermId, std::vector<uint32_t>> term_positions;
  uint32_t pos = 0;
  ForEachToken(text, [&](std::string_view token) {
    term_positions[InternTerm(token)].push_back(pos++);
  });
  total_tokens_ += pos;

  std::vector<TermId> forward;
  forward.reserve(term_positions.size());
  for (const auto& [tid, positions] : term_positions) forward.push_back(tid);
  docs_.emplace(std::piecewise_construct, std::forward_as_tuple(id),
                std::forward_as_tuple(pos, forward));
  for (const auto& [tid, positions] : term_positions) {
    InsertPosting(tid, id, positions, pos);
    ++num_postings_;
  }
  RefreshDirtyTerms();
}

void InvertedIndex::RemoveDocument(model::DocId id) {
  auto fwd_it = docs_.find(id);
  if (fwd_it == docs_.end()) return;
  const std::vector<TermId> tids(fwd_it->second.begin(),
                                 fwd_it->second.end());
  total_tokens_ -= fwd_it->second.length();
  docs_.erase(fwd_it);
  for (TermId tid : tids) {
    RemovePosting(tid, id);
    --num_postings_;
  }
  RefreshDirtyTerms();
}

size_t InvertedIndex::TermSlot(std::string_view term) const {
  const size_t mask = term_slots_.size() - 1;
  size_t slot = std::hash<std::string_view>{}(term) & mask;
  while (term_slots_[slot] != kNoTerm && TermText(term_slots_[slot]) != term) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void InvertedIndex::GrowTermSlots() {
  std::vector<TermId> old =
      std::exchange(term_slots_, std::vector<TermId>(
                                     std::max<size_t>(16, term_slots_.size() * 2),
                                     kNoTerm));
  for (TermId tid : old) {
    if (tid != kNoTerm) term_slots_[TermSlot(TermText(tid))] = tid;
  }
}

TermId InvertedIndex::InternTerm(std::string_view term) {
  if ((terms_.size() + 1) * 4 > term_slots_.size() * 3) GrowTermSlots();
  const size_t slot = TermSlot(term);
  if (term_slots_[slot] != kNoTerm) return term_slots_[slot];
  const TermId tid = static_cast<TermId>(terms_.size());
  term_chars_.append(term);
  term_offsets_.push_back(static_cast<uint32_t>(term_chars_.size()));
  term_slots_[slot] = tid;
  terms_.emplace_back();
  return tid;
}

TermId InvertedIndex::FindTerm(std::string_view term) const {
  if (term_slots_.empty()) return kNoTerm;
  return term_slots_[TermSlot(term)];
}

void InvertedIndex::InsertPosting(TermId tid, model::DocId doc,
                                  const std::vector<uint32_t>& positions,
                                  uint32_t doc_len) {
  TermPostings& list = terms_[tid];
  if (list.doc_count == 0) ++live_terms_;
  const uint32_t tf = static_cast<uint32_t>(positions.size());

  if (list.blocks.empty() || list.blocks.back().last_doc < doc) {
    // Append fast path: ids usually arrive ascending.
    if (list.blocks.empty() ||
        list.blocks.back().count >= PostingBlock::kTargetPostings) {
      list.blocks.emplace_back();
    }
    PostingBlock& block = list.blocks.back();
    AppendPosting(&block, doc, tf, positions.data());
    NotePostingDocLen(&block, doc_len);
  } else {
    // Out-of-order id (a re-added version): rewrite the one block that
    // must hold it, splitting when it outgrows the cap.
    const size_t bi = FindBlockIndex(list.blocks, doc);
    PostingBlock& old = list.blocks[bi];
    DecodedBlock dec;
    IMPLIANCE_CHECK(DecodeDocsFreqs(old, &dec));
    IMPLIANCE_CHECK(DecodePositions(old, &dec));
    const size_t at = static_cast<size_t>(
        std::lower_bound(dec.docs.begin(), dec.docs.end(), doc) -
        dec.docs.begin());
    IMPLIANCE_CHECK(at == dec.docs.size() || dec.docs[at] != doc);
    dec.docs.insert(dec.docs.begin() + static_cast<ptrdiff_t>(at), doc);
    dec.freqs.insert(dec.freqs.begin() + static_cast<ptrdiff_t>(at), tf);
    dec.positions.insert(dec.positions.begin() + static_cast<ptrdiff_t>(at),
                         positions);
    const uint32_t carried_min =
        old.min_len == 0 ? doc_len : std::min(old.min_len, doc_len);
    const bool was_dirty = old.dirty;
    std::vector<PostingBlock> rebuilt =
        EncodeChunks(dec, carried_min, was_dirty);
    list.blocks[bi] = std::move(rebuilt[0]);
    list.blocks.insert(list.blocks.begin() + static_cast<ptrdiff_t>(bi) + 1,
                       std::make_move_iterator(rebuilt.begin() + 1),
                       std::make_move_iterator(rebuilt.end()));
  }
  ++list.doc_count;
}

void InvertedIndex::RemovePosting(TermId tid, model::DocId doc) {
  TermPostings& list = terms_[tid];
  const size_t bi = FindBlockIndex(list.blocks, doc);
  IMPLIANCE_CHECK(bi < list.blocks.size());
  PostingBlock& old = list.blocks[bi];
  IMPLIANCE_CHECK(old.first_doc <= doc);
  if (old.count == 1) {
    IMPLIANCE_CHECK(old.first_doc == doc);
    list.blocks.erase(list.blocks.begin() + static_cast<ptrdiff_t>(bi));
  } else {
    DecodedBlock dec;
    IMPLIANCE_CHECK(DecodeDocsFreqs(old, &dec));
    IMPLIANCE_CHECK(DecodePositions(old, &dec));
    const size_t at = static_cast<size_t>(
        std::lower_bound(dec.docs.begin(), dec.docs.end(), doc) -
        dec.docs.begin());
    IMPLIANCE_CHECK(at < dec.docs.size() && dec.docs[at] == doc);
    dec.docs.erase(dec.docs.begin() + static_cast<ptrdiff_t>(at));
    dec.freqs.erase(dec.freqs.begin() + static_cast<ptrdiff_t>(at));
    dec.positions.erase(dec.positions.begin() + static_cast<ptrdiff_t>(at));
    // The surviving postings are a subset, so the old block's bounds stay
    // valid (merely loose); re-encode with them carried over and queue a
    // lazy exact refresh instead of paying doc-length lookups here.
    std::vector<PostingBlock> rebuilt =
        EncodeChunks(dec, old.min_len, /*dirty=*/true);
    IMPLIANCE_CHECK(rebuilt.size() == 1);
    list.blocks[bi] = std::move(rebuilt[0]);
    if (!list.queued_dirty) {
      list.queued_dirty = true;
      dirty_terms_.push_back(tid);
    }
  }
  --list.doc_count;
  if (list.doc_count == 0) {
    --live_terms_;
    list.blocks.clear();
    list.blocks.shrink_to_fit();
  }
}

void InvertedIndex::RefreshDirtyTerms() {
  // Bounded per write op: stale bounds are valid (only loose), so this is
  // a tightening pass, not a correctness requirement. Done on the write
  // path so Search stays const and race-free under concurrent readers.
  constexpr size_t kTermBudget = 4;
  DecodedBlock dec;
  for (size_t n = 0; n < kTermBudget && !dirty_terms_.empty(); ++n) {
    const TermId tid = dirty_terms_.back();
    dirty_terms_.pop_back();
    TermPostings& list = terms_[tid];
    list.queued_dirty = false;
    for (PostingBlock& block : list.blocks) {
      if (!block.dirty) continue;
      IMPLIANCE_CHECK(DecodeDocsFreqs(block, &dec));
      uint32_t max_tf = 0;
      uint32_t min_len = 0;
      for (size_t i = 0; i < dec.docs.size(); ++i) {
        max_tf = std::max(max_tf, dec.freqs[i]);
        const uint32_t len = docs_.at(dec.docs[i]).length();
        if (min_len == 0 || len < min_len) min_len = len;
      }
      block.max_tf = max_tf;
      block.min_len = min_len;
      block.dirty = false;
    }
  }
}

// ------------------------------------------------------------------ query

double InvertedIndex::Idf(size_t doc_freq) const {
  const double n = static_cast<double>(num_documents());
  const double df = static_cast<double>(doc_freq);
  return std::log(1.0 + (n - df + 0.5) / (df + 0.5));
}

double InvertedIndex::AvgDocLen() const {
  return docs_.empty() ? 1.0
                      : static_cast<double>(total_tokens_) /
                            static_cast<double>(docs_.size());
}

std::vector<TermId> InvertedIndex::LiveQueryTerms(
    std::string_view query) const {
  std::vector<TermId> tids;
  ForEachToken(query, [&](std::string_view token) {
    const TermId tid = FindTerm(token);
    if (tid == kNoTerm || terms_[tid].doc_count == 0) return;
    if (std::find(tids.begin(), tids.end(), tid) == tids.end()) {
      tids.push_back(tid);
    }
  });
  return tids;
}

bool InvertedIndex::RequiredQueryTerms(std::string_view query,
                                       std::vector<TermId>* out) const {
  out->clear();
  bool all_live = true;
  ForEachToken(query, [&](std::string_view token) {
    const TermId tid = FindTerm(token);
    if (tid == kNoTerm || terms_[tid].doc_count == 0) {
      all_live = false;
      return;
    }
    if (std::find(out->begin(), out->end(), tid) == out->end()) {
      out->push_back(tid);
    }
  });
  return all_live;
}

bool InvertedIndex::OrderedQueryTerms(std::string_view phrase,
                                      std::vector<TermId>* out) const {
  out->clear();
  bool all_live = true;
  ForEachToken(phrase, [&](std::string_view token) {
    const TermId tid = FindTerm(token);
    if (tid == kNoTerm || terms_[tid].doc_count == 0) {
      all_live = false;
      return;
    }
    out->push_back(tid);
  });
  return all_live;
}

std::vector<InvertedIndex::SearchResult> InvertedIndex::Search(
    std::string_view query, size_t k, const DocFilter& accept) const {
  obs::ScopedSpan span("index.search");
  const uint64_t start_us = NowMicros();
  SearchStats stats;
  std::vector<SearchResult> results = Search(query, k, &stats, accept);
  SearchLatencyHistogram()->Add(static_cast<double>(NowMicros() - start_us));
  PostingsScoredCounter()->Increment(stats.postings_scored);
  BlocksSkippedCounter()->Increment(stats.blocks_skipped);
  return results;
}

std::vector<InvertedIndex::SearchResult> InvertedIndex::Search(
    std::string_view query, size_t k, SearchStats* stats,
    const DocFilter& accept) const {
  SearchStats scratch;
  if (stats == nullptr) stats = &scratch;
  if (k == 0) return {};
  const std::vector<TermId> tids = LiveQueryTerms(query);
  if (tids.empty()) return {};
  const double avg_len = AvgDocLen();

  std::vector<Cursor> cursors;
  cursors.reserve(tids.size());
  for (TermId tid : tids) {
    const TermPostings& list = terms_[tid];
    cursors.emplace_back(tid, &list.blocks, list.doc_count,
                         Idf(list.doc_count), avg_len, stats);
  }
  // MaxScore layout: ascending score ceilings; the prefix [0,
  // first_essential) is non-essential once its combined ceiling cannot
  // reach the heap threshold on its own.
  std::sort(cursors.begin(), cursors.end(),
            [](const Cursor& a, const Cursor& b) {
              return a.term_bound() < b.term_bound();
            });
  const size_t n = cursors.size();
  std::vector<double> prefix(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += cursors[i].term_bound();
    prefix[i] = acc;
  }
  // Canonical summation order (ascending TermId): final scores are built
  // by summing per-term contributions in this order, bit-identical to
  // SearchExhaustive, so near-tie rankings cannot diverge between the
  // two paths from floating-point association alone.
  std::vector<size_t> canonical(n);
  for (size_t i = 0; i < n; ++i) canonical[i] = i;
  std::sort(canonical.begin(), canonical.end(), [&](size_t a, size_t b) {
    return cursors[a].tid() < cursors[b].tid();
  });
  std::vector<double> contrib(n);

  // Bounded k-heap: front() is the current kth (worst kept) result.
  auto better = [](const SearchResult& a, const SearchResult& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  };
  std::vector<SearchResult> heap;
  heap.reserve(std::min(k, static_cast<size_t>(1024)));
  double threshold = 0.0;  // meaningful only once the heap is full
  size_t first_essential = 0;
  auto repartition = [&] {
    while (first_essential < n &&
           prefix[first_essential] + kPruneEpsilon < threshold) {
      ++first_essential;
    }
  };

  while (first_essential < n) {
    // Pivot: the smallest current doc among essential cursors.
    model::DocId d = kSentinelDoc;
    for (size_t j = first_essential; j < n; ++j) {
      d = std::min(d, cursors[j].doc());
    }
    if (d == kSentinelDoc) break;
    if (accept && !accept(d)) {
      // Rejected: step the essential cursors past d without scoring it.
      // Non-essential cursors only ever seek forward, so they need nothing.
      for (size_t j = first_essential; j < n; ++j) {
        if (cursors[j].doc() == d) cursors[j].Next();
      }
      continue;
    }
    const double doc_len = static_cast<double>(docs_.at(d).length());
    const bool full = heap.size() >= k;

    std::fill(contrib.begin(), contrib.end(), 0.0);
    double score = 0.0;  // running sum, used only for pruning decisions
    for (size_t j = first_essential; j < n; ++j) {
      Cursor& c = cursors[j];
      if (c.doc() == d) {
        contrib[j] = c.ScoreAt(doc_len);
        score += contrib[j];
        ++stats->postings_scored;
        c.Next();
      }
    }
    // Non-essential terms, highest ceiling first: probe only while the
    // doc can still reach the threshold.
    bool viable = true;
    for (size_t j = first_essential; j-- > 0;) {
      Cursor& c = cursors[j];
      if (full) {
        if (score + prefix[j] + kPruneEpsilon < threshold) {
          viable = false;
          break;
        }
        // Block-max refinement: replace term j's global ceiling with the
        // ceiling of the one block that could contain d.
        const double block_bound = c.UpperBoundFor(d);
        const double rest = j > 0 ? prefix[j - 1] : 0.0;
        if (score + rest + block_bound + kPruneEpsilon < threshold) {
          viable = false;
          break;
        }
        if (block_bound == 0.0) continue;  // d provably absent from term j
      }
      c.SeekTo(d);
      if (c.doc() == d) {
        contrib[j] = c.ScoreAt(doc_len);
        score += contrib[j];
        ++stats->postings_scored;
      }
    }
    if (viable) {
      // Exact score, summed in canonical order (x + 0.0 == x bit-exact,
      // so absent terms don't perturb the chain).
      double exact = 0.0;
      for (size_t idx : canonical) exact += contrib[idx];
      if (!full) {
        heap.push_back(SearchResult{d, exact});
        std::push_heap(heap.begin(), heap.end(), better);
        if (heap.size() >= k) {
          threshold = heap.front().score;
          repartition();
        }
      } else if (exact > heap.front().score ||
                 (exact == heap.front().score && d < heap.front().doc)) {
        std::pop_heap(heap.begin(), heap.end(), better);
        heap.back() = SearchResult{d, exact};
        std::push_heap(heap.begin(), heap.end(), better);
        if (heap.front().score > threshold) {
          threshold = heap.front().score;
          repartition();
        }
      }
    }
  }

  std::sort(heap.begin(), heap.end(), better);
  return heap;
}

std::vector<InvertedIndex::SearchResult> InvertedIndex::SearchExhaustive(
    std::string_view query, size_t k) const {
  if (k == 0) return {};
  std::vector<TermId> tids = LiveQueryTerms(query);
  if (tids.empty()) return {};
  // Ascending TermId: per-doc contributions then accumulate in the same
  // order as Search's canonical summation, so the two paths produce
  // bit-identical scores (and therefore identical near-tie rankings).
  std::sort(tids.begin(), tids.end());

  const double avg_len = AvgDocLen();
  std::unordered_map<model::DocId, double> scores;
  DecodedBlock dec;
  for (TermId tid : tids) {
    const TermPostings& list = terms_[tid];
    const double idf = Idf(list.doc_count);
    for (const PostingBlock& block : list.blocks) {
      IMPLIANCE_CHECK(DecodeDocsFreqs(block, &dec));
      for (size_t i = 0; i < dec.docs.size(); ++i) {
        const double len =
            static_cast<double>(docs_.at(dec.docs[i]).length());
        scores[dec.docs[i]] +=
            Bm25(static_cast<double>(dec.freqs[i]), len, idf, avg_len);
      }
    }
  }

  std::vector<SearchResult> results;
  results.reserve(scores.size());
  for (const auto& [doc, score] : scores) {
    results.push_back(SearchResult{doc, score});
  }
  std::sort(results.begin(), results.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (results.size() > k) results.resize(k);
  return results;
}

std::vector<model::DocId> InvertedIndex::SearchAll(
    std::string_view query) const {
  return SearchAll(query, nullptr);
}

std::vector<model::DocId> InvertedIndex::SearchAll(std::string_view query,
                                                   SearchStats* stats) const {
  std::vector<TermId> tids;
  if (!RequiredQueryTerms(query, &tids) || tids.empty()) return {};
  const double avg_len = AvgDocLen();

  std::vector<Cursor> cursors;
  cursors.reserve(tids.size());
  for (TermId tid : tids) {
    const TermPostings& list = terms_[tid];
    cursors.emplace_back(tid, &list.blocks, list.doc_count,
                         Idf(list.doc_count), avg_len, stats);
  }
  // Rarest term drives; the others follow with galloping seeks.
  std::sort(cursors.begin(), cursors.end(),
            [](const Cursor& a, const Cursor& b) {
              return a.doc_count() < b.doc_count();
            });

  std::vector<model::DocId> result;
  Cursor& driver = cursors[0];
  model::DocId candidate = driver.doc();
  while (candidate != kSentinelDoc) {
    bool all_match = true;
    for (size_t j = 1; j < cursors.size(); ++j) {
      cursors[j].SeekTo(candidate);
      if (cursors[j].doc() != candidate) {
        if (cursors[j].AtEnd()) return result;
        driver.SeekTo(cursors[j].doc());
        candidate = driver.doc();
        all_match = false;
        break;
      }
    }
    if (all_match) {
      result.push_back(candidate);
      driver.Next();
      candidate = driver.doc();
    }
  }
  return result;
}

std::vector<model::DocId> InvertedIndex::SearchPhrase(
    std::string_view phrase) const {
  std::vector<TermId> ordered;
  if (!OrderedQueryTerms(phrase, &ordered) || ordered.empty()) return {};

  // Unique cursors plus a phrase-slot -> cursor mapping (repeated terms
  // share one cursor and its decoded positions).
  std::vector<TermId> unique;
  std::vector<size_t> slot_cursor(ordered.size());
  for (size_t i = 0; i < ordered.size(); ++i) {
    auto it = std::find(unique.begin(), unique.end(), ordered[i]);
    if (it == unique.end()) {
      slot_cursor[i] = unique.size();
      unique.push_back(ordered[i]);
    } else {
      slot_cursor[i] = static_cast<size_t>(it - unique.begin());
    }
  }

  const double avg_len = AvgDocLen();
  std::vector<Cursor> cursors;
  cursors.reserve(unique.size());
  for (TermId tid : unique) {
    const TermPostings& list = terms_[tid];
    cursors.emplace_back(tid, &list.blocks, list.doc_count,
                         Idf(list.doc_count), avg_len, nullptr);
  }

  std::vector<model::DocId> result;
  if (unique.size() == 1 && ordered.size() == 1) {
    // Single-token phrase: every doc holding the term matches.
    for (Cursor& c = cursors[0]; !c.AtEnd(); c.Next()) {
      result.push_back(c.doc());
    }
    return result;
  }

  // Conjunctive candidates driven by the rarest term; adjacency verified
  // from the already-positioned cursors (no per-candidate re-search of
  // the posting lists).
  size_t driver_idx = 0;
  for (size_t u = 1; u < cursors.size(); ++u) {
    if (cursors[u].doc_count() < cursors[driver_idx].doc_count()) {
      driver_idx = u;
    }
  }
  std::vector<std::vector<uint32_t>> positions(cursors.size());
  std::vector<size_t> ptr(ordered.size());
  Cursor& driver = cursors[driver_idx];
  model::DocId candidate = driver.doc();
  while (candidate != kSentinelDoc) {
    bool all_match = true;
    for (size_t u = 0; u < cursors.size(); ++u) {
      if (u == driver_idx) continue;
      cursors[u].SeekTo(candidate);
      if (cursors[u].doc() != candidate) {
        if (cursors[u].AtEnd()) return result;
        driver.SeekTo(cursors[u].doc());
        candidate = driver.doc();
        all_match = false;
        break;
      }
    }
    if (!all_match) continue;

    // Every cursor sits on `candidate`; verify adjacency with one
    // monotone pointer per phrase slot (starts ascend, so pointers only
    // move forward).
    for (size_t u = 0; u < cursors.size(); ++u) {
      cursors[u].CurrentPositions(&positions[u]);
    }
    std::fill(ptr.begin(), ptr.end(), 0);
    bool matched = false;
    bool exhausted = false;
    for (uint32_t start : positions[slot_cursor[0]]) {
      bool ok = true;
      for (size_t i = 1; i < ordered.size(); ++i) {
        const std::vector<uint32_t>& p = positions[slot_cursor[i]];
        const uint32_t want = start + static_cast<uint32_t>(i);
        while (ptr[i] < p.size() && p[ptr[i]] < want) ++ptr[i];
        if (ptr[i] == p.size()) {
          ok = false;
          exhausted = true;  // later starts only need larger positions
          break;
        }
        if (p[ptr[i]] != want) {
          ok = false;
          break;
        }
      }
      if (ok) {
        matched = true;
        break;
      }
      if (exhausted) break;
    }
    if (matched) result.push_back(candidate);
    driver.Next();
    candidate = driver.doc();
  }
  return result;
}

std::vector<model::DocId> InvertedIndex::DocsWithTerm(
    std::string_view term) const {
  const std::string lowered = ToLower(term);
  const TermId tid = FindTerm(lowered);
  if (tid == kNoTerm || terms_[tid].doc_count == 0) return {};
  const TermPostings& list = terms_[tid];
  std::vector<model::DocId> docs;
  docs.reserve(list.doc_count);
  DecodedBlock dec;
  for (const PostingBlock& block : list.blocks) {
    IMPLIANCE_CHECK(DecodeDocsFreqs(block, &dec));
    docs.insert(docs.end(), dec.docs.begin(), dec.docs.end());
  }
  return docs;
}

size_t InvertedIndex::num_blocks() const {
  size_t total = 0;
  for (const TermPostings& list : terms_) total += list.blocks.size();
  return total;
}

size_t InvertedIndex::num_dirty_blocks() const {
  size_t total = 0;
  for (const TermPostings& list : terms_) {
    for (const PostingBlock& block : list.blocks) {
      if (block.dirty) ++total;
    }
  }
  return total;
}

}  // namespace impliance::index
