#ifndef APPBENCH_GEN_H_
#define APPBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

// Seeded input generation for the appliance benchmark. Everything the
// program is asked to store comes from here, together with the ground truth
// the checker compares its answers against. The same seed gives the same
// inputs, byte for byte.
namespace appbench {

// A synthetic vocabulary of letter-only pseudo-words drawn Zipf-skewed, so
// posting lists span a realistic range of lengths. Unique tokens always
// carry digits, so they can never collide with a vocabulary word. A word is
// 2-4 syllables plus one letter, so its length is odd and it starts with a
// syllable: no fixed word of the generated documents (field names, product
// names, "call", "customer", ...) is one. A document therefore holds a
// vocabulary word exactly when the generator put it there, which is the
// ground truth search answers are checked against.
class Vocabulary {
 public:
  Vocabulary(uint64_t seed, size_t size);

  const std::string& Word(size_t rank) const { return words_[rank]; }
  size_t size() const { return words_.size(); }
  // Zipf(theta = 1) rank in [0, size).
  size_t ZipfRank(impliance::Rng* rng) const;
  // `count` Zipf words.
  std::vector<std::string> Words(impliance::Rng* rng, size_t count) const;
  // `count` Zipf words joined by single spaces.
  std::string Sentence(impliance::Rng* rng, size_t count) const {
    return Join(Words(rng, count));
  }
  static std::string Join(const std::vector<std::string>& words);

 private:
  std::vector<std::string> words_;
};

// One purchase order, the row behind the `order` view.
struct OrderRow {
  int64_t order_no = 0;
  int64_t customer_id = 0;
  std::string product;
  // Always a multiple of 0.25, so every sum is exact in a double and the
  // checker can demand equality.
  double total = 0.0;
};

// The CSV text a spreadsheet export of `rows` would be (header included).
// With `refs` (one per row), a `ref` column carries them.
std::string OrderCsv(const std::vector<OrderRow>& rows,
                     const std::vector<std::string>& refs = {});

// The `index`-th unique token of a stream ("c" transcripts, "p" preload
// text, ...): letters and digits, never a vocabulary word.
std::string UniqueToken(const char* stream, uint64_t seed, size_t index);

// Orders plus call transcripts: the data behind views_1node and
// scaleout_4node.
struct OrderCorpus {
  std::vector<OrderRow> orders;
  std::vector<std::string> transcripts;  // plain text, one document each
  std::vector<std::string> transcript_tokens;  // the unique token of each
  // The vocabulary words of each transcript.
  std::vector<std::vector<std::string>> transcript_words;
};

OrderCorpus MakeOrderCorpus(uint64_t seed, size_t num_orders,
                            size_t num_transcripts);

// Generates orders whose order numbers continue past a preload, drawn from
// the same product / customer distributions; used for writes.
class OrderStream {
 public:
  OrderStream(uint64_t seed, int64_t first_order_no);
  OrderRow Next();

 private:
  impliance::Rng rng_;
  int64_t next_order_no_;
};

// The formats the parser measurements cycle through.
enum class DocFormat { kEmail, kJson, kXml, kCsv };
const char* DocFormatName(DocFormat format);

// One generated mixed-format document: raw bytes plus, per document it will
// produce (50 for CSV, else 1), the unique token placed in it.
struct MixedDoc {
  DocFormat format = DocFormat::kEmail;
  std::string kind;
  std::string content;
  std::vector<std::string> tokens;
};

// Payloads of every format the appliance sniffs, for timing its parsers:
// Zipf-vocabulary plain text and mixed-format 2-4 KB documents. Each
// document carries one unique token.
class TextCorpus {
 public:
  TextCorpus(uint64_t seed, size_t vocabulary_size);

  // Plain-text document of about `bytes` bytes; `token` receives its
  // unique token.
  std::string PreloadText(size_t index, size_t bytes, std::string* token);
  // The `index`-th document: formats rotate e-mail, JSON, XML, CSV.
  MixedDoc Write(size_t index);

 private:
  uint64_t seed_;
  Vocabulary vocabulary_;
  impliance::Rng rng_;
  OrderStream orders_;
};

// The product and customer domains every order generator draws from.
inline constexpr size_t kNumProducts = 40;
inline constexpr size_t kNumCustomers = 2000;
std::string ProductName(size_t rank);

}  // namespace appbench

#endif  // APPBENCH_GEN_H_
