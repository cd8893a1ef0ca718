// The benchmark's own tests of its generator and answer checker. The
// checker is fed deliberately wrong answers directly; the program is not
// involved. Smoke runs of each workload live in appbench/test_appbench.py.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "check.h"
#include "common/string_util.h"
#include "gen.h"

namespace appbench {

namespace {

namespace wire = impliance::server::wire;

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

void ExpectAccepted(const std::string& result, const std::string& what) {
  Expect(result.empty(), what + " accepted (got: " + result + ")");
}

void ExpectRejected(const std::string& result, const std::string& check,
                    const std::string& what) {
  Expect(result.rfind(check + ":", 0) == 0,
         what + " rejected by " + check + " (got: '" + result + "')");
}

void GeneratorIsDeterministic() {
  const OrderCorpus a = MakeOrderCorpus(7, 3000, 40);
  const OrderCorpus b = MakeOrderCorpus(7, 3000, 40);
  const OrderCorpus c = MakeOrderCorpus(8, 3000, 40);
  Expect(OrderCsv(a.orders) == OrderCsv(b.orders), "same seed, same orders");
  Expect(a.transcripts == b.transcripts, "same seed, same transcripts");
  Expect(a.transcript_words == b.transcript_words,
         "same seed, same transcript words");
  Expect(OrderCsv(a.orders) != OrderCsv(c.orders), "other seed, other orders");
  // Zipf skew: the most popular product outsells the median one.
  std::vector<int> per_product(kNumProducts);
  for (const OrderRow& row : a.orders) {
    ++per_product.at(ProductRank(row.product));
  }
  Expect(per_product[0] > 3 * per_product[kNumProducts / 2],
         "product popularity is skewed");

  // The search ground truth: the vocabulary words the appliance's tokenizer
  // finds in a generated document are exactly those the generator recorded.
  const Vocabulary vocabulary(7, 4000);
  std::set<std::string> words;
  for (size_t i = 0; i < vocabulary.size(); ++i) {
    words.insert(vocabulary.Word(i));
  }
  auto vocabulary_tokens = [&words](const std::string& text) {
    std::set<std::string> found;
    for (const std::string& token : impliance::Tokenize(text)) {
      if (words.count(token)) found.insert(token);
    }
    return found;
  };
  for (size_t i = 0; i < a.transcripts.size(); ++i) {
    const std::vector<std::string>& recorded = a.transcript_words[i];
    Expect(vocabulary_tokens(a.transcripts[i]) ==
               std::set<std::string>(recorded.begin(), recorded.end()),
           "transcript " + std::to_string(i) + " holds the recorded words");
  }
  Expect(vocabulary_tokens(OrderCsv(a.orders)).empty() &&
             vocabulary_tokens(
                 OrderCsv({a.orders[0]}, {UniqueToken("w", 7, 0)}))
                 .empty(),
         "order rows hold no vocabulary word");

  TextCorpus x(7, 500), y(7, 500);
  for (size_t i = 0; i < 8; ++i) {
    std::string tx, ty;
    Expect(x.PreloadText(i, 1000, &tx) == y.PreloadText(i, 1000, &ty) &&
               tx == ty,
           "same seed, same preload text");
    const MixedDoc dx = x.Write(i), dy = y.Write(i);
    Expect(dx.content == dy.content && dx.tokens == dy.tokens,
           "same seed, same write");
    Expect(dx.content.size() >= 2000 && dx.content.size() <= 4500,
           std::string("write of 2-4 KB: ") + DocFormatName(dx.format) + " " +
               std::to_string(dx.content.size()));
    Expect(dx.tokens.size() == (dx.format == DocFormat::kCsv ? 50u : 1u),
           "one unique token per produced document");
  }
}

OrderLedger::Snapshot SmallTruth() {
  OrderLedger ledger;
  ledger.AddAcked({{1, 1000, ProductName(0), 10.25},
                   {2, 1001, ProductName(0), 5.5},
                   {3, 1000, ProductName(1), 2.0}});
  return ledger.Take();
}

void SqlChecksRejectWrongAnswers() {
  const OrderLedger::Snapshot truth = SmallTruth();
  const std::string p0 = ProductName(0), p1 = ProductName(1);
  ExpectAccepted(CheckSqlAgg({p0 + "\t2\t15.75", p1 + "\t1\t2"}, truth, truth),
                 "right GROUP BY");
  ExpectRejected(CheckSqlAgg({p0 + "\t3\t15.75", p1 + "\t1\t2"}, truth, truth),
                 "sql_agg", "wrong count");
  ExpectRejected(CheckSqlAgg({p0 + "\t2\t15.5", p1 + "\t1\t2"}, truth, truth),
                 "sql_agg", "wrong sum");
  ExpectRejected(CheckSqlAgg({p0 + "\t2\t15.75"}, truth, truth), "sql_agg",
                 "missing group");
  ExpectRejected(
      CheckSqlAgg({p0 + "\t2\t15.75", p1 + "\t1\t2", "bogus\t1\t1"}, truth,
                  truth),
      "sql_agg", "unknown group");

  const OrderRow row{2, 1001, p0, 5.5};
  ExpectAccepted(CheckSqlPoint({p0 + "\t5.5"}, row), "right point row");
  ExpectRejected(CheckSqlPoint({p0 + "\t5.25"}, row), "sql_point",
                 "wrong total");
  ExpectRejected(CheckSqlPoint({}, row), "sql_point", "missing row");
}

wire::Response FacetAnswer(int64_t total, const std::string& body) {
  wire::Response response;
  response.counters.emplace_back("total_matches", total);
  response.body = body;
  return response;
}

void FacetCheckRejectsWrongAnswers() {
  const OrderLedger::Snapshot truth = SmallTruth();
  const std::string p0 = ProductName(0), p1 = ProductName(1);
  const std::string right = "/doc/product\t" + p0 + "\t2\n/doc/product\t" +
                            p1 + "\t1\n/doc/customer_id\t1000\t2\n"
                            "/doc/customer_id\t1001\t1\n";
  ExpectAccepted(CheckFacet(FacetAnswer(3, right), truth, truth),
                 "right facet");
  ExpectRejected(CheckFacet(FacetAnswer(4, right), truth, truth), "facet",
                 "wrong total");
  ExpectRejected(
      CheckFacet(FacetAnswer(3, "/doc/product\t" + p0 + "\t1\n"
                                "/doc/customer_id\t1000\t2\n"),
                 truth, truth),
      "facet", "undercount");
  wire::Response degraded = FacetAnswer(3, right);
  degraded.degraded = true;
  ExpectRejected(CheckFacet(degraded, truth, truth), "facet", "degraded");
  // A write in flight widens the upper bound by its rows.
  OrderLedger::Snapshot later = truth;
  later.rows_in_flight = 1;
  ExpectAccepted(
      CheckFacet(FacetAnswer(4, "/doc/product\t" + p0 + "\t3\n"
                                "/doc/customer_id\t1000\t3\n"),
                 truth, later),
      "facet with a write in flight");
}

void SearchAndReadChecksRejectWrongAnswers() {
  // Documents 3, 5 and 6 hold a query term; 4 does not.
  auto holds = [](uint64_t id) { return id == 3 || id == 5 || id == 6; };
  wire::Response response;
  response.hits = {{5, 2.0, "call", ""}, {3, 1.5, "call", ""}};
  ExpectAccepted(CheckSearch(response, 10, 2, holds), "right search");
  ExpectAccepted(CheckSearch(response, 2, 3, holds), "right top-2 of 3");
  ExpectRejected(CheckSearch(response, 1, 2, holds), "search",
                 "more than k hits");
  ExpectRejected(CheckSearch(response, 10, 3, holds), "search",
                 "fewer hits than matching documents");
  ExpectRejected(CheckSearch(wire::Response{}, 10, 1, holds), "search",
                 "empty answer while a document matches");
  ExpectAccepted(CheckSearch(wire::Response{}, 10, 0, holds),
                 "empty answer when nothing matches");
  wire::Response off_topic = response;
  off_topic.hits[1].doc = 4;
  ExpectRejected(CheckSearch(off_topic, 10, 2, holds), "search",
                 "hit without a query term");
  wire::Response twice = response;
  twice.hits[1].doc = 5;
  ExpectRejected(CheckSearch(twice, 10, 2, holds), "search", "duplicate hit");
  wire::Response unsorted = response;
  std::swap(unsorted.hits[0], unsorted.hits[1]);
  ExpectRejected(CheckSearch(unsorted, 10, 2, holds), "search",
                 "unsorted scores");
  wire::Response degraded = response;
  degraded.degraded = true;
  ExpectRejected(CheckSearch(degraded, 10, 2, holds), "search", "degraded");

  ExpectAccepted(CheckTokenFound(response, 3, "tok"), "token found");
  ExpectRejected(CheckTokenFound(response, 4, "tok"), "readback",
                 "token missing");
  ExpectAccepted(CheckGet("{\"order_no\": 7}", OrderMarker(7)), "right get");
  ExpectRejected(CheckGet("{\"order_no\": 8}", OrderMarker(7)), "get",
                 "wrong document");
  ExpectRejected(CheckGet("{\"order_no\": 70}", OrderMarker(7)), "get",
                 "order number with a longer one's prefix");
  ExpectAccepted(CheckGet("Memo uc1n5 kalo", "uc1n5"), "token in a body");
  ExpectRejected(CheckGet("Memo uc1n50 kalo", "uc1n5"), "get",
                 "token that is a prefix of the body's token");
  ExpectRejected(CheckGet("Memo xuc1n5", "uc1n5"), "get",
                 "token that is a suffix of the body's token");
}

}  // namespace

int RunSelfTest() {
  GeneratorIsDeterministic();
  SqlChecksRejectWrongAnswers();
  FacetCheckRejectsWrongAnswers();
  SearchAndReadChecksRejectWrongAnswers();
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace appbench
