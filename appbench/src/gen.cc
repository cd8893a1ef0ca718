#include "gen.h"

#include <set>

namespace appbench {

namespace {

constexpr const char* kSyllables[] = {"ka", "lo", "mi", "ne", "ru", "so",
                                      "ti", "va", "be", "du", "fo", "gi"};
constexpr size_t kNumSyllables = sizeof(kSyllables) / sizeof(kSyllables[0]);

// Zipf rank in [0, n) with theta = 0.99 (Rng::Zipf never returns 0).
size_t SkewedRank(impliance::Rng* rng, size_t n) {
  return static_cast<size_t>(rng->Zipf(n + 1, 0.99)) - 1;
}

OrderRow MakeOrder(impliance::Rng* rng, int64_t order_no) {
  OrderRow row;
  row.order_no = order_no;
  row.customer_id = 1000 + static_cast<int64_t>(SkewedRank(rng, kNumCustomers));
  row.product = ProductName(SkewedRank(rng, kNumProducts));
  row.total = static_cast<double>(rng->UniformInt(20, 8000)) * 0.25;
  return row;
}

std::string FormatTotal(double total) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", total);
  return buf;
}

}  // namespace

std::string UniqueToken(const char* stream, uint64_t seed, size_t index) {
  return std::string("u") + stream + std::to_string(seed % 1000) + "n" +
         std::to_string(index);
}

std::string ProductName(size_t rank) {
  return std::string(kSyllables[rank % kNumSyllables]) +
         kSyllables[(rank / kNumSyllables) % kNumSyllables] + "tron";
}

Vocabulary::Vocabulary(uint64_t seed, size_t size) {
  impliance::Rng rng(seed ^ 0x766f6361ULL);
  std::set<std::string> seen;
  while (words_.size() < size) {
    std::string word;
    const size_t syllables = 2 + rng.Uniform(3);
    for (size_t i = 0; i < syllables; ++i) {
      word += kSyllables[rng.Uniform(kNumSyllables)];
    }
    word += static_cast<char>('a' + rng.Uniform(26));
    if (seen.insert(word).second) words_.push_back(std::move(word));
  }
}

size_t Vocabulary::ZipfRank(impliance::Rng* rng) const {
  return static_cast<size_t>(rng->Zipf(words_.size() + 1, 1.0)) - 1;
}

std::vector<std::string> Vocabulary::Words(impliance::Rng* rng,
                                           size_t count) const {
  std::vector<std::string> words;
  words.reserve(count);
  for (size_t i = 0; i < count; ++i) words.push_back(words_[ZipfRank(rng)]);
  return words;
}

std::string Vocabulary::Join(const std::vector<std::string>& words) {
  std::string out;
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0) out += ' ';
    out += words[i];
  }
  return out;
}

std::string OrderCsv(const std::vector<OrderRow>& rows,
                     const std::vector<std::string>& refs) {
  std::string csv = "order_no,customer_id,product,total";
  csv += refs.empty() ? "\n" : ",ref\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const OrderRow& row = rows[i];
    csv += std::to_string(row.order_no) + "," +
           std::to_string(row.customer_id) + "," + row.product + "," +
           FormatTotal(row.total);
    csv += refs.empty() ? "\n" : "," + refs[i] + "\n";
  }
  return csv;
}

OrderCorpus MakeOrderCorpus(uint64_t seed, size_t num_orders,
                            size_t num_transcripts) {
  OrderCorpus corpus;
  impliance::Rng rng(seed);
  corpus.orders.reserve(num_orders);
  for (size_t i = 0; i < num_orders; ++i) {
    corpus.orders.push_back(
        MakeOrder(&rng, 100000 + static_cast<int64_t>(i)));
  }
  const Vocabulary vocabulary(seed, 4000);
  for (size_t i = 0; i < num_transcripts; ++i) {
    const size_t product = SkewedRank(&rng, kNumProducts);
    corpus.transcript_tokens.push_back(UniqueToken("c", seed, i));
    corpus.transcript_words.push_back(vocabulary.Words(&rng, 24));
    corpus.transcripts.push_back(
        "Call " + corpus.transcript_tokens.back() + " customer asked about " +
        ProductName(product) + " " +
        Vocabulary::Join(corpus.transcript_words.back()) + ".");
  }
  return corpus;
}

OrderStream::OrderStream(uint64_t seed, int64_t first_order_no)
    : rng_(seed ^ 0x6f726465ULL), next_order_no_(first_order_no) {}

OrderRow OrderStream::Next() { return MakeOrder(&rng_, next_order_no_++); }

const char* DocFormatName(DocFormat format) {
  switch (format) {
    case DocFormat::kEmail:
      return "email";
    case DocFormat::kJson:
      return "json";
    case DocFormat::kXml:
      return "xml";
    case DocFormat::kCsv:
      return "csv";
  }
  return "?";
}

TextCorpus::TextCorpus(uint64_t seed, size_t vocabulary_size)
    : seed_(seed),
      vocabulary_(seed, vocabulary_size),
      rng_(seed ^ 0x74657874ULL),
      orders_(seed, 500000) {}

std::string TextCorpus::PreloadText(size_t index, size_t bytes,
                                    std::string* token) {
  *token = UniqueToken("p", seed_, index);
  std::string text = "Note " + *token;
  while (text.size() < bytes) {
    text += ' ';
    text += vocabulary_.Word(vocabulary_.ZipfRank(&rng_));
  }
  return text;
}

MixedDoc TextCorpus::Write(size_t index) {
  MixedDoc doc;
  doc.format = static_cast<DocFormat>(index % 4);
  const size_t body_words = 250 + rng_.Uniform(200);  // ~2-4 KB of text
  switch (doc.format) {
    case DocFormat::kEmail: {
      doc.kind = "mail";
      doc.tokens.push_back(UniqueToken("e", seed_, index));
      doc.content = "From: agent" + std::to_string(index % 97) +
                    "@example.com\nTo: desk@example.com\nSubject: " +
                    vocabulary_.Sentence(&rng_, 4) + " " + doc.tokens[0] +
                    "\n\n" + vocabulary_.Sentence(&rng_, body_words) + "\n";
      break;
    }
    case DocFormat::kJson: {
      doc.kind = "event";
      doc.tokens.push_back(UniqueToken("j", seed_, index));
      doc.content = "{\"ref\": \"" + doc.tokens[0] + "\", \"title\": \"" +
                    vocabulary_.Sentence(&rng_, 4) + "\", \"severity\": " +
                    std::to_string(rng_.Uniform(5)) + ", \"body\": \"" +
                    vocabulary_.Sentence(&rng_, body_words) + "\"}";
      break;
    }
    case DocFormat::kXml: {
      doc.kind = "memo";
      doc.tokens.push_back(UniqueToken("x", seed_, index));
      doc.content = "<memo><ref>" + doc.tokens[0] + "</ref><title>" +
                    vocabulary_.Sentence(&rng_, 4) + "</title><body>" +
                    vocabulary_.Sentence(&rng_, body_words) +
                    "</body></memo>";
      break;
    }
    case DocFormat::kCsv: {
      doc.kind = "shipment";
      doc.content = "order_no,customer_id,product,total,channel,ref\n";
      for (size_t row = 0; row < 50; ++row) {
        const OrderRow order = orders_.Next();
        std::string token = UniqueToken("r", seed_, index * 50 + row);
        doc.content += std::to_string(order.order_no) + "," +
                       std::to_string(order.customer_id) + "," +
                       order.product + "," + FormatTotal(order.total) + "," +
                       vocabulary_.Word(vocabulary_.ZipfRank(&rng_)) + "," +
                       token + "\n";
        doc.tokens.push_back(std::move(token));
      }
      break;
    }
  }
  return doc;
}

}  // namespace appbench
