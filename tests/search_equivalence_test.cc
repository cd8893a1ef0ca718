// Randomized equivalence tests for the block-max early-termination search
// paths: on every corpus and query, Search (MaxScore + block-max skipping)
// must return exactly the same top-k as SearchExhaustive, and the skip-based
// SearchAll/SearchPhrase must match brute-force oracles over the raw
// postings. Seeds are sweep parameters so failures reproduce exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "index/inverted_index.h"

namespace impliance {
namespace {

using index::InvertedIndex;
using model::DocId;

// Zipf-distributed vocabulary so a few terms are frequent (long posting
// lists spanning many blocks) and most are rare — the regime where
// early termination matters and where its bugs hide.
class Corpus {
 public:
  Corpus(Rng* rng, size_t vocab_size) {
    vocab_.reserve(vocab_size);
    std::set<std::string> seen;
    while (vocab_.size() < vocab_size) {
      std::string w = rng->Word(3 + rng->Uniform(6));
      if (seen.insert(w).second) vocab_.push_back(std::move(w));
    }
  }

  std::string MakeDoc(Rng* rng, size_t num_tokens) const {
    std::string text;
    for (size_t i = 0; i < num_tokens; ++i) {
      if (i > 0) text += ' ';
      text += vocab_[rng->Zipf(vocab_.size(), 0.9)];
    }
    return text;
  }

  std::string MakeQuery(Rng* rng, size_t num_terms) const {
    std::string q;
    for (size_t i = 0; i < num_terms; ++i) {
      if (i > 0) q += ' ';
      // Mix frequent (Zipf head) and arbitrary terms.
      q += rng->Bernoulli(0.5) ? vocab_[rng->Zipf(vocab_.size(), 0.9)]
                               : vocab_[rng->Uniform(vocab_.size())];
    }
    return q;
  }

  const std::vector<std::string>& vocab() const { return vocab_; }

 private:
  std::vector<std::string> vocab_;
};

void ExpectSameTopK(const std::vector<InvertedIndex::SearchResult>& expected,
                    const std::vector<InvertedIndex::SearchResult>& actual,
                    const std::string& query, size_t k) {
  ASSERT_EQ(expected.size(), actual.size())
      << "query=\"" << query << "\" k=" << k;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].doc, actual[i].doc)
        << "rank " << i << " query=\"" << query << "\" k=" << k;
    EXPECT_NEAR(expected[i].score, actual[i].score, 1e-9)
        << "rank " << i << " query=\"" << query << "\" k=" << k;
  }
}

class SearchEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SearchEquivalenceTest, TopKMatchesExhaustive) {
  Rng rng(GetParam());
  Corpus corpus(&rng, 300);
  InvertedIndex idx;
  const size_t num_docs = 400 + rng.Uniform(400);
  for (size_t d = 0; d < num_docs; ++d) {
    idx.AddDocument(1 + d, corpus.MakeDoc(&rng, 5 + rng.Uniform(60)));
  }
  // Frequent terms must span multiple blocks for skipping to engage.
  EXPECT_GT(idx.num_blocks(), idx.num_terms());

  for (int q = 0; q < 40; ++q) {
    const std::string query = corpus.MakeQuery(&rng, 1 + rng.Uniform(5));
    for (size_t k : {size_t{1}, size_t{10}, size_t{100}}) {
      ExpectSameTopK(idx.SearchExhaustive(query, k), idx.Search(query, k),
                     query, k);
    }
  }
}

TEST_P(SearchEquivalenceTest, TopKMatchesExhaustiveAfterChurn) {
  Rng rng(GetParam() + 7777);
  Corpus corpus(&rng, 200);
  InvertedIndex idx;
  std::vector<DocId> live;
  DocId next_id = 1;
  for (size_t d = 0; d < 300; ++d) {
    idx.AddDocument(next_id, corpus.MakeDoc(&rng, 5 + rng.Uniform(50)));
    live.push_back(next_id++);
  }
  // Interleave removals, re-adds (fresh ids land after removal-churned
  // blocks), and queries; stale-but-valid block-max bounds must never
  // change results.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 30 && live.size() > 50; ++i) {
      const size_t at = rng.Uniform(live.size());
      idx.RemoveDocument(live[at]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(at));
    }
    for (int i = 0; i < 20; ++i) {
      idx.AddDocument(next_id, corpus.MakeDoc(&rng, 5 + rng.Uniform(50)));
      live.push_back(next_id++);
    }
    // Occasionally resurrect a previously used id out of order.
    if (!live.empty() && round % 2 == 0) {
      const DocId victim = live[rng.Uniform(live.size())];
      idx.RemoveDocument(victim);
      idx.AddDocument(victim, corpus.MakeDoc(&rng, 5 + rng.Uniform(50)));
    }
    for (int q = 0; q < 10; ++q) {
      const std::string query = corpus.MakeQuery(&rng, 1 + rng.Uniform(4));
      for (size_t k : {size_t{1}, size_t{10}, size_t{100}}) {
        ExpectSameTopK(idx.SearchExhaustive(query, k), idx.Search(query, k),
                       query, k);
      }
    }
  }
}

// The exhaustive oracle with an accept-predicate: rank everything, keep
// the accepted documents, cut to k.
std::vector<InvertedIndex::SearchResult> FilteredExhaustive(
    const InvertedIndex& idx, const std::string& query, size_t k,
    const InvertedIndex::DocFilter& accept) {
  std::vector<InvertedIndex::SearchResult> all =
      idx.SearchExhaustive(query, idx.num_documents());
  all.erase(std::remove_if(all.begin(), all.end(),
                           [&](const InvertedIndex::SearchResult& r) {
                             return !accept(r.doc);
                           }),
            all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

TEST_P(SearchEquivalenceTest, FilteredTopKMatchesFilteredExhaustive) {
  Rng rng(GetParam() + 4242);
  Corpus corpus(&rng, 200);
  InvertedIndex idx;
  std::vector<DocId> live;
  DocId next_id = 1;
  for (size_t d = 0; d < 500; ++d) {
    idx.AddDocument(next_id, corpus.MakeDoc(&rng, 5 + rng.Uniform(50)));
    live.push_back(next_id++);
  }
  // Predicates of different densities: most, half, and a sparse residue
  // class, so rejected runs span whole blocks as well as single postings.
  const std::vector<InvertedIndex::DocFilter> filters = {
      [](DocId id) { return id % 10 != 0; },
      [](DocId id) { return id % 2 == 0; },
      [](DocId id) { return id % 17 == 3; },
  };
  for (int round = 0; round < 6; ++round) {
    // Removal churn between rounds leaves loose block-max bounds behind.
    for (int i = 0; i < 40 && live.size() > 100; ++i) {
      const size_t at = rng.Uniform(live.size());
      idx.RemoveDocument(live[at]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(at));
    }
    for (int i = 0; i < 20; ++i) {
      idx.AddDocument(next_id, corpus.MakeDoc(&rng, 5 + rng.Uniform(50)));
      live.push_back(next_id++);
    }
    for (int q = 0; q < 10; ++q) {
      const std::string query = corpus.MakeQuery(&rng, 1 + rng.Uniform(4));
      for (const InvertedIndex::DocFilter& accept : filters) {
        for (size_t k : {size_t{1}, size_t{10}, size_t{100}}) {
          ExpectSameTopK(FilteredExhaustive(idx, query, k, accept),
                         idx.Search(query, k, accept), query, k);
        }
      }
    }
  }
}

TEST_P(SearchEquivalenceTest, SearchAllMatchesOracle) {
  Rng rng(GetParam() + 31337);
  Corpus corpus(&rng, 120);
  InvertedIndex idx;
  std::vector<std::pair<DocId, std::string>> docs;
  for (size_t d = 0; d < 500; ++d) {
    const DocId id = 1 + d;
    std::string text = corpus.MakeDoc(&rng, 4 + rng.Uniform(40));
    idx.AddDocument(id, text);
    docs.emplace_back(id, std::move(text));
  }
  for (int q = 0; q < 30; ++q) {
    const std::string query = corpus.MakeQuery(&rng, 1 + rng.Uniform(3));
    std::vector<std::string> terms = Tokenize(query);
    std::vector<DocId> oracle;
    for (const auto& [id, text] : docs) {
      std::vector<std::string> toks = Tokenize(text);
      std::set<std::string> have(toks.begin(), toks.end());
      bool all = true;
      for (const std::string& t : terms) {
        if (!have.count(t)) {
          all = false;
          break;
        }
      }
      if (all) oracle.push_back(id);
    }
    EXPECT_EQ(oracle, idx.SearchAll(query)) << "query=\"" << query << "\"";
  }
}

TEST_P(SearchEquivalenceTest, SearchPhraseMatchesOracle) {
  Rng rng(GetParam() + 99);
  // Tiny vocabulary so phrases actually recur.
  Corpus corpus(&rng, 12);
  InvertedIndex idx;
  std::vector<std::pair<DocId, std::string>> docs;
  for (size_t d = 0; d < 300; ++d) {
    const DocId id = 1 + d;
    std::string text = corpus.MakeDoc(&rng, 3 + rng.Uniform(25));
    idx.AddDocument(id, text);
    docs.emplace_back(id, std::move(text));
  }
  for (int q = 0; q < 30; ++q) {
    const size_t len = 1 + rng.Uniform(3);
    std::string phrase;
    for (size_t i = 0; i < len; ++i) {
      if (i > 0) phrase += ' ';
      phrase += corpus.vocab()[rng.Uniform(corpus.vocab().size())];
    }
    std::vector<std::string> want = Tokenize(phrase);
    std::vector<DocId> oracle;
    for (const auto& [id, text] : docs) {
      std::vector<std::string> toks = Tokenize(text);
      bool found = false;
      for (size_t s = 0; s + want.size() <= toks.size() && !found; ++s) {
        found = std::equal(want.begin(), want.end(), toks.begin() + s);
      }
      if (found) oracle.push_back(id);
    }
    EXPECT_EQ(oracle, idx.SearchPhrase(phrase)) << "phrase=\"" << phrase
                                                << "\"";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 42, 1234));

// Search is const all the way down (no lazy mutation), so concurrent
// queries over one index must be race-free. Exercised under TSan in CI.
TEST(SearchConcurrencyTest, ParallelQueriesAreRaceFree) {
  Rng rng(5);
  Corpus corpus(&rng, 150);
  InvertedIndex idx;
  for (size_t d = 0; d < 400; ++d) {
    idx.AddDocument(1 + d, corpus.MakeDoc(&rng, 5 + rng.Uniform(40)));
  }
  // Leave some blocks dirty so readers see the loose-bound path too.
  for (DocId id = 1; id <= 100; id += 3) idx.RemoveDocument(id);

  std::vector<std::string> queries;
  for (int q = 0; q < 16; ++q) {
    queries.push_back(corpus.MakeQuery(&rng, 1 + rng.Uniform(4)));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&idx, &queries, t] {
      for (int round = 0; round < 20; ++round) {
        const std::string& query = queries[(t + round) % queries.size()];
        auto ranked = idx.Search(query, 10);
        auto exhaustive = idx.SearchExhaustive(query, 10);
        ASSERT_EQ(ranked.size(), exhaustive.size());
        idx.SearchAll(query);
        idx.SearchPhrase(query);
      }
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace impliance
