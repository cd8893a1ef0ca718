#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "check.h"
#include "core/impliance.h"
#include "gen.h"
#include "index/fielded_index.h"
#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "spans.h"

namespace appbench {

namespace {

namespace wire = impliance::server::wire;
using impliance::Rng;
using impliance::core::Impliance;
using Clock = std::chrono::steady_clock;

enum Op : int { kSearch, kGet, kSqlPoint, kSqlAgg, kFacet, kIngest, kNumOps };
constexpr const char* kOpNames[kNumOps] = {"search", "get",   "sql_point",
                                           "sql_agg", "facet", "ingest"};
// Ops report p50 and p90 as metrics. The heavy ops run too rarely for p99
// to have ten samples beyond it; for the sub-millisecond ops p99 measured
// vCPU preemption by the host more than the program, swinging 2-6x between
// identical runs. Get (~0.1 ms) reports p50 only: its p90 still spread
// 0.21-0.39 between the quartiles of ten runs.
constexpr double kTail = 90;
constexpr bool kReportTail[kNumOps] = {true, false, true, true, true, true};
// Analytic ops: they scan a whole view, 100-1000x the work of the others.
constexpr bool kHeavy[kNumOps] = {false, false, false, true, true, false};

constexpr size_t kSearchK = 10;
// Over-fetch the facade asks the cluster for (Impliance::SearchAs).
constexpr size_t kCoreFetch = kSearchK * 4 + 16;
// The closed loop alternates interactive phases (only light ops) with
// analytic phases (only heavy ops) of this length. A light op's latency
// then depends on the light ops beside it, not on whether a 100 ms scan
// happened to run next to it, which made it swing 2-10x between runs.
constexpr double kPhaseSeconds = 1.0;
// Traced runs alternate untraced and traced windows of this length, so both
// see the same corpus growth; trace.overhead_frac compares their rates.
constexpr double kTraceWindowSeconds = 0.5;
// In traced windows, every Nth request of each op per client is sampled.
constexpr uint64_t kSampleEvery = 2;
// Acknowledged writes read back after the timed loop, at most.
constexpr size_t kMaxReadback = 2000;
// Untraced runs set up this many times and report the median.
constexpr size_t kSetupRounds = 7;
// Preloaded `order` rows (in 1k-row CSV chunks) and call transcripts.
constexpr size_t kOrders = 20000;
constexpr size_t kTranscripts = 2000;

const std::vector<std::string> kFacetPaths = {"/doc/product",
                                              "/doc/customer_id"};

struct WorkloadSpec {
  std::string name;
  size_t data_nodes = 0;
  size_t replication = 1;
  // Op weights of client 0 and client 1.
  std::array<std::array<double, kNumOps>, 2> mix{};
};

// Weights in kOpNames order: search, get, sql_point, sql_agg, facet, ingest.
// Light and heavy weights are normalised separately, one set per phase; each
// client has ops of both kinds.
// Only client 0 issues SQL. Two SQL statements running at once while some
// kind's view is dirty (a write landed since the last SQL) corrupt the heap
// of the program as it stands: Impliance::ViewForLocked updates view_cache_
// and dirty_kinds_ under a shared lock. Writes therefore come from client 1
// only, and SQL from client 0 only.
WorkloadSpec Spec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "views_1node") {
    spec.mix[0] = {0.30, 0.05, 0.65, 0.35, 0.65, 0};
    // Notes are a kind of their own, so the `order` rows stay fixed. Each
    // note still dirties the `note` view: the next SQL statement re-infers
    // it, and the store-wide epoch makes the stats cache recount the order
    // table.
    spec.mix[1] = {0.50, 0.30, 0, 0, 1.0, 0.20};
  } else if (name == "scaleout_4node") {
    spec.data_nodes = 4;
    spec.replication = 2;
    spec.mix[0] = {0.30, 0.10, 0.60, 0.60, 0.40, 0};
    spec.mix[1] = {0.40, 0.30, 0, 0, 1.0, 0.30};
  } else {
    spec.name.clear();
  }
  return spec;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile over a sorted vector.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// A prepared write of one document: what to send and what its
// acknowledgement proves.
struct Write {
  std::string kind;
  std::string payload;
  std::string marker;
  std::string token;
  std::vector<std::string> words;  // vocabulary words in the document
  std::vector<OrderRow> orders;    // the order row it adds, if any
};

// Documents the appliance acknowledged: what Get and point SQL may ask for,
// and which documents hold a vocabulary word, for checking search answers.
class Known {
 public:
  struct Doc {
    uint64_t id = 0;
    std::string marker;
    std::string token;  // "" when the document has none
    bool written = false;  // acknowledged by the timed loop, not preload
  };

  void AddDoc(Doc doc, const std::vector<std::string>& words) {
    std::lock_guard<std::mutex> lock(mutex_);
    max_id_ = std::max(max_id_, doc.id);
    ids_.insert(doc.id);
    for (const std::string& word : words) holders_[word].insert(doc.id);
    docs_.push_back(std::move(doc));
  }
  void AddOrders(const std::vector<OrderRow>& rows) {
    std::lock_guard<std::mutex> lock(mutex_);
    orders_.insert(orders_.end(), rows.begin(), rows.end());
  }
  // A write is in flight from before it is sent until after it is
  // acknowledged, so a document the appliance may already serve is always
  // known as acknowledged or in flight.
  void BeginWrite(const std::vector<std::string>& words) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++in_flight_;
    in_flight_words_.insert(words.begin(), words.end());
  }
  void EndWrite(const std::vector<std::string>& words) {
    std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    for (const std::string& word : words) {
      in_flight_words_.erase(in_flight_words_.find(word));
    }
  }
  // Acknowledged documents holding any of `words`, counted up to `cap`.
  size_t CountHolding(const std::vector<std::string>& words,
                      size_t cap) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_set<uint64_t> all;
    for (const std::string& word : words) {
      auto it = holders_.find(word);
      if (it == holders_.end()) continue;
      if (it->second.size() >= cap) return cap;
      all.insert(it->second.begin(), it->second.end());
    }
    return std::min(cap, all.size());
  }
  // Whether document `id` holds any of `words`: an acknowledged document
  // by the generator's record, else a document of a write in flight.
  bool Holds(uint64_t id, const std::vector<std::string>& words) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ids_.count(id)) {
      for (const std::string& word : words) {
        auto it = holders_.find(word);
        if (it != holders_.end() && it->second.count(id)) return true;
      }
      return false;
    }
    if (id == 0 || id > max_id_ + in_flight_) return false;
    for (const std::string& word : words) {
      if (in_flight_words_.count(word)) return true;
    }
    return false;
  }
  Doc PickDoc(Rng* rng) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return docs_[rng->Uniform(docs_.size())];
  }
  OrderRow PickOrder(Rng* rng) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return orders_[rng->Uniform(orders_.size())];
  }
  std::vector<Doc> Docs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return docs_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Doc> docs_;
  std::unordered_set<uint64_t> ids_;
  std::unordered_map<std::string, std::unordered_set<uint64_t>> holders_;
  std::vector<OrderRow> orders_;
  uint64_t max_id_ = 0;
  uint64_t in_flight_ = 0;
  std::multiset<std::string> in_flight_words_;
};

// Per-client tallies, merged after the loop.
struct Tally {
  std::array<uint64_t, kNumOps> attempted{};
  std::array<uint64_t, kNumOps> failed{};
  // Per op: latencies of the ops that succeeded.
  std::array<std::vector<double>, kNumOps> latency_ms;
  std::array<uint64_t, 2> ok_by_window{};  // [untraced, traced]
  std::string first_failure;
  // Traced run only.
  std::array<uint64_t, kNumOps> seen_traced{};
  std::map<std::string, std::vector<double>> per_unit;  // ratios per sample
  std::map<std::string, double> sums;
};

std::string FormatOf(std::string_view payload) {
  switch (impliance::ingest::DetectFormat(payload)) {
    case impliance::ingest::Format::kCsv:
      return "csv";
    case impliance::ingest::Format::kJson:
      return "json";
    case impliance::ingest::Format::kXml:
      return "xml";
    case impliance::ingest::Format::kEmail:
      return "email";
    case impliance::ingest::Format::kPlainText:
      return "text";
  }
  return "text";
}

// Time of one ingest::IngestAny call on `payload`, in microseconds.
double ParseMicros(const std::string& kind, const std::string& payload) {
  const auto t0 = Clock::now();
  auto parsed = impliance::ingest::IngestAny(kind, payload);
  const double micros = Seconds(Clock::now() - t0) * 1e6;
  IMPLIANCE_CHECK(parsed.ok());
  return micros;
}

uint64_t CounterValue(const char* name) {
  return impliance::obs::Registry::Global().GetCounter(name)->Value();
}

class Bench {
 public:
  Bench(RunOptions options, WorkloadSpec spec)
      : options_(std::move(options)),
        spec_(std::move(spec)),
        vocabulary_(options_.seed, 4000),
        order_stream_(options_.seed, 200000) {}

  ~Bench() { Teardown(); }

  int Run();

 private:
  // ------------------------------------------------------------ set-up
  void Generate();
  bool SetUp(size_t round, std::string* error);
  bool Infuse(const std::string& kind, const std::string& payload,
              std::vector<uint64_t>* ids, std::string* error);
  void Teardown();
  void BuildOracle();
  void MeasureParsers();

  // ------------------------------------------------------------- loop
  void ClientLoop(int client, Clock::time_point start,
                  Clock::time_point deadline, Tally* tally);
  // Runs one op. Returns "" on success, else the failed check.
  std::string RunOp(Op op, int client, Rng* rng, bool sampled,
                    uint64_t request, double* latency_ms, Tally* tally);
  Write NextWrite();
  void Acknowledge(const Write& write, const std::vector<uint64_t>& ids);
  std::string Readback();

  // ---------------------------------------------------------- results
  void AddLayerMetrics(const std::vector<Tally>& tallies,
                       std::map<std::string, std::pair<double, std::string>>*
                           metrics);

  RunOptions options_;
  WorkloadSpec spec_;
  Vocabulary vocabulary_;

  // Generated once per run, preloaded by every set-up.
  OrderCorpus order_corpus_;
  std::vector<std::pair<std::string, std::string>> preload_;  // kind, raw
  std::mutex write_mutex_;  // guards the write generator
  OrderStream order_stream_;
  size_t writes_made_ = 0;

  std::unique_ptr<Impliance> impliance_;
  std::unique_ptr<impliance::server::ImplianceServer> server_;
  std::vector<std::unique_ptr<impliance::server::ImplianceClient>> clients_;
  std::string setup_dir_;

  // Fresh for every set-up.
  std::unique_ptr<Known> known_;
  std::unique_ptr<OrderLedger> ledger_;
  // Raw bytes handed to InfuseContent or sent in an ingest request.
  std::atomic<uint64_t> user_bytes_{0};

  // Traced run only.
  SpanRecorder spans_;
  std::shared_mutex probe_mutex_;  // probes hold it exclusively
  std::mutex oracle_mutex_;
  std::unique_ptr<impliance::index::FieldedTextIndex> oracle_;
  Tally preload_tally_;  // ingest samples taken during the traced set-up
};

void Bench::Generate() {
  order_corpus_ = MakeOrderCorpus(options_.seed, kOrders, kTranscripts);
  const auto& orders = order_corpus_.orders;
  for (size_t begin = 0; begin < orders.size(); begin += 1000) {
    const size_t end = std::min(orders.size(), begin + 1000);
    preload_.emplace_back(
        "order", OrderCsv(std::vector<OrderRow>(orders.begin() + begin,
                                                orders.begin() + end)));
  }
  for (const std::string& text : order_corpus_.transcripts) {
    preload_.emplace_back("call", text);
  }
}

bool Bench::Infuse(const std::string& kind, const std::string& payload,
                   std::vector<uint64_t>* ids, std::string* error) {
  auto result = impliance_->InfuseContent(kind, payload);
  if (!result.ok()) {
    *error = "preload: " + result.status().ToString();
    return false;
  }
  ids->assign(result->begin(), result->end());
  user_bytes_ += payload.size();
  return true;
}

bool Bench::SetUp(size_t round, std::string* error) {
  setup_dir_ = options_.data_dir + "/setup" + std::to_string(round);
  std::filesystem::remove_all(setup_dir_);
  std::filesystem::create_directories(setup_dir_);
  impliance::core::ImplianceOptions options;
  options.data_dir = setup_dir_;
  options.scale_out_data_nodes = spec_.data_nodes;
  options.scale_out_replication = spec_.replication;
  auto opened = Impliance::Open(options);
  if (!opened.ok()) {
    *error = "open: " + opened.status().ToString();
    return false;
  }
  impliance_ = std::move(opened).value();
  auto started =
      impliance::server::ImplianceServer::Start(impliance_.get(), {});
  if (!started.ok()) {
    *error = "server: " + started.status().ToString();
    return false;
  }
  server_ = std::move(started).value();

  // Preload straight into the facade: it is set-up, not the timed path.
  known_ = std::make_unique<Known>();
  ledger_ = std::make_unique<OrderLedger>();
  user_bytes_ = 0;
  size_t transcript = 0, order = 0;
  for (size_t i = 0; i < preload_.size(); ++i) {
    const auto& [kind, payload] = preload_[i];
    std::vector<uint64_t> ids;
    // Traced set-up: every 16th payload also times parsing and infusion.
    const bool sampled = options_.trace && i % 16 == 0;
    if (sampled) {
      const double parse_us = ParseMicros(kind, payload);
      const auto t0 = Clock::now();
      if (!Infuse(kind, payload, &ids, error)) return false;
      const double infuse_us = Seconds(Clock::now() - t0) * 1e6;
      preload_tally_.per_unit["ingest.infuse_us_per_doc"].push_back(
          (infuse_us - parse_us) / static_cast<double>(ids.size()));
    } else if (!Infuse(kind, payload, &ids, error)) {
      return false;
    }
    if (kind == "order") {
      if (ids.size() > order_corpus_.orders.size() - order) {
        *error = "preload: more ids than rows";
        return false;
      }
      for (uint64_t id : ids) {
        known_->AddDoc(
            {id, OrderMarker(order_corpus_.orders[order].order_no), ""}, {});
        ++order;
      }
    } else {
      const std::string& token = order_corpus_.transcript_tokens[transcript];
      known_->AddDoc({ids.at(0), token, token},
                     order_corpus_.transcript_words[transcript]);
      ++transcript;
    }
  }
  if (order != order_corpus_.orders.size()) {
    *error = "preload: order ids do not match the rows sent";
    return false;
  }
  known_->AddOrders(order_corpus_.orders);
  ledger_->AddAcked(order_corpus_.orders);

  // Warm-up: fill the view, statistics and block caches the timed ops use.
  impliance_->Sql("SELECT product, COUNT(*), SUM(total) FROM order GROUP BY "
                  "product");
  impliance_->Sql("SELECT product, total FROM order WHERE order_no = " +
                  std::to_string(order_corpus_.orders.at(0).order_no));
  impliance::query::FacetedQuery facet;
  facet.kind = "order";
  facet.facet_paths = kFacetPaths;
  impliance_->Faceted(facet);
  Rng rng(options_.seed);
  impliance_->Search(vocabulary_.Sentence(&rng, 2), kSearchK);

  impliance::server::ClientOptions client_options;
  client_options.port = server_->port();
  client_options.recv_timeout_ms = 60'000;
  clients_.clear();
  for (int c = 0; c < 2; ++c) {
    auto client = impliance::server::ImplianceClient::Connect(client_options);
    if (!client.ok()) {
      *error = "connect: " + client.status().ToString();
      return false;
    }
    clients_.push_back(std::move(client).value());
  }
  return true;
}

void Bench::Teardown() {
  clients_.clear();
  if (server_ != nullptr) server_->Shutdown();
  server_.reset();
  impliance_.reset();
  if (!setup_dir_.empty()) std::filesystem::remove_all(setup_dir_);
  setup_dir_.clear();
}

void Bench::BuildOracle() {
  oracle_ = std::make_unique<impliance::index::FieldedTextIndex>();
  // Documents are re-parsed from the payloads and given the ids the
  // appliance acknowledged, in the same order.
  std::vector<Known::Doc> docs = known_->Docs();
  size_t next = 0;
  for (const auto& [kind, payload] : preload_) {
    auto parsed = impliance::ingest::IngestAny(kind, payload);
    for (impliance::model::Document& doc : *parsed) {
      doc.id = docs.at(next++).id;
      doc.version = 1;
      oracle_->AddDocument(doc);
    }
  }
}

void Bench::MeasureParsers() {
  // The same seed-generated payloads in every workload: 32 of each format
  // the appliance sniffs, each timed as the fastest of three parses.
  TextCorpus corpus(options_.seed, 20000);
  std::vector<std::pair<std::string, std::string>> payloads;
  for (size_t i = 0; i < 128; ++i) {
    MixedDoc doc = corpus.Write(i);
    payloads.emplace_back(doc.kind, std::move(doc.content));
  }
  for (size_t i = 0; i < 32; ++i) {
    std::string token;
    payloads.emplace_back("text", corpus.PreloadText(i, 3200, &token));
  }
  for (const auto& [kind, payload] : payloads) {
    const auto docs = static_cast<double>(
        impliance::ingest::IngestAny(kind, payload)->size());
    const double micros = std::min({ParseMicros(kind, payload),
                                    ParseMicros(kind, payload),
                                    ParseMicros(kind, payload)});
    preload_tally_.per_unit["ingest.parse_us_per_doc." + FormatOf(payload)]
        .push_back(micros / docs);
  }
}

Write Bench::NextWrite() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  const size_t index = writes_made_++;
  Write write;
  if (spec_.name == "scaleout_4node") {
    // One order row, with a unique reference token.
    OrderRow row = order_stream_.Next();
    write.token = UniqueToken("w", options_.seed, index);
    write.kind = "order";
    write.payload = OrderCsv({row}, {write.token});
    write.marker = OrderMarker(row.order_no);
    write.orders = {row};
  } else {
    // A short note of another kind: the order rows stay fixed.
    Rng rng(options_.seed * 7919 + index);
    write.token = UniqueToken("n", options_.seed, index);
    write.words = vocabulary_.Words(&rng, 20);
    write.kind = "note";
    write.payload = "Memo " + write.token + " " + Vocabulary::Join(write.words);
    write.marker = write.token;
  }
  return write;
}

void Bench::Acknowledge(const Write& write, const std::vector<uint64_t>& ids) {
  known_->AddDoc({ids.at(0), write.marker, write.token, true}, write.words);
  known_->AddOrders(write.orders);
  ledger_->AddAcked(write.orders);
  user_bytes_ += write.payload.size();
  if (oracle_ != nullptr) {
    auto parsed = impliance::ingest::IngestAny(write.kind, write.payload);
    std::lock_guard<std::mutex> lock(oracle_mutex_);
    for (size_t i = 0; i < parsed->size() && i < ids.size(); ++i) {
      (*parsed)[i].id = ids[i];
      (*parsed)[i].version = 1;
      oracle_->AddDocument((*parsed)[i]);
    }
  }
}

std::string Bench::RunOp(Op op, int client_index, Rng* rng, bool sampled,
                         uint64_t request, double* latency_ms, Tally* tally) {
  impliance::server::ImplianceClient& client = *clients_[client_index];
  SpanRecorder* spans = options_.trace ? &spans_ : nullptr;
  // A sampled request's spans hang under one root span; otherwise the
  // client span is the root.
  std::optional<SpanRecorder::Scope> request_span;
  if (sampled) {
    request_span.emplace(spans, std::string("request.") + kOpNames[op],
                         request);
  }
  const uint64_t parent = request_span ? request_span->id() : 0;

  // Times the wire call. Returns the response or an error naming the op.
  wire::Response response;
  auto call = [&](wire::Request req) -> std::string {
    std::optional<SpanRecorder::Scope> span;
    if (spans != nullptr) {
      span.emplace(spans, std::string("client.") + kOpNames[op], request,
                   parent);
    }
    const auto t0 = Clock::now();
    auto result = client.Call(std::move(req));
    *latency_ms = Seconds(Clock::now() - t0) * 1e3;
    if (!result.ok()) return std::string(kOpNames[op]) + ": " +
                             result.status().ToString();
    response = std::move(result).value();
    if (response.status != wire::WireStatus::kOk) {
      return std::string(kOpNames[op]) + ": status " +
             wire::WireStatusName(response.status) + " " + response.error;
    }
    return "";
  };
  auto probe = [&](const std::string& name, const std::function<void()>& fn) {
    SpanRecorder::Scope span(spans, name, request, parent);
    fn();
    return span.ElapsedMicros();
  };

  switch (op) {
    case kSearch: {
      const std::vector<std::string> words = vocabulary_.Words(rng, 2);
      const std::string query = Vocabulary::Join(words);
      const size_t matching = known_->CountHolding(words, kSearchK);
      wire::Request req;
      req.op = wire::Op::kSearch;
      req.payload = query;
      req.limit = kSearchK;
      if (std::string e = call(req); !e.empty()) return e;
      if (std::string e = CheckSearch(response, kSearchK, matching,
                                      [&](uint64_t id) {
                                        return known_->Holds(id, words);
                                      });
          !e.empty()) {
        return e;
      }
      if (!sampled) return "";
      const uint64_t postings0 = CounterValue("index.search.postings_scored");
      const uint64_t skipped0 = CounterValue("index.search.blocks_skipped");
      probe("core.search", [&] { impliance_->Search(query, kSearchK); });
      tally->per_unit["index.postings_scored_per_query"].push_back(
          static_cast<double>(CounterValue("index.search.postings_scored") -
                              postings0));
      tally->per_unit["index.blocks_skipped_per_query"].push_back(
          static_cast<double>(CounterValue("index.search.blocks_skipped") -
                              skipped0));
      if (impliance_->scale_out() != nullptr) {
        impliance::cluster::ShipStats ship;
        probe("cluster.search", [&] {
          impliance_->scale_out()->KeywordSearch(query, kCoreFetch, &ship);
        });
        tally->per_unit["cluster.tasks_per_query"].push_back(
            static_cast<double>(ship.tasks));
        tally->per_unit["cluster.rows_shipped_per_query"].push_back(
            static_cast<double>(ship.rows_shipped));
        tally->per_unit["cluster.critical_path_us"].push_back(
            static_cast<double>(ship.critical_path_micros));
      }
      if (oracle_ != nullptr) {
        std::vector<impliance::index::InvertedIndex::SearchResult> expected;
        probe("oracle.search", [&] {
          std::lock_guard<std::mutex> lock(oracle_mutex_);
          expected = oracle_->Search(query, kSearchK);
        });
        bool same = expected.size() == response.hits.size();
        for (size_t i = 0; same && i < expected.size(); ++i) {
          same = expected[i].doc == response.hits[i].doc;
        }
        tally->per_unit["cluster.topk_agreement"].push_back(same ? 1.0 : 0.0);
      }
      return "";
    }
    case kGet: {
      const Known::Doc doc = known_->PickDoc(rng);
      wire::Request req;
      req.op = wire::Op::kGet;
      req.doc_id = doc.id;
      if (std::string e = call(req); !e.empty()) return e;
      if (std::string e = CheckGet(response.body, doc.marker); !e.empty()) {
        return e;
      }
      if (sampled) {
        probe("storage.get", [&] { impliance_->Get(doc.id); });
      }
      return "";
    }
    case kSqlPoint:
    case kSqlAgg: {
      OrderRow row;
      std::string sql;
      if (op == kSqlPoint) {
        row = known_->PickOrder(rng);
        sql = "SELECT product, total FROM order WHERE order_no = " +
              std::to_string(row.order_no);
      } else {
        sql = "SELECT product, COUNT(*), SUM(total) FROM order GROUP BY "
              "product";
      }
      const OrderLedger::Snapshot at_send = ledger_->Take();
      wire::Request req;
      req.op = wire::Op::kSql;
      req.payload = sql;
      if (std::string e = call(req); !e.empty()) return e;
      if (response.degraded) {
        return std::string(kOpNames[op]) + ": degraded on a healthy cluster";
      }
      const std::string e =
          op == kSqlPoint
              ? CheckSqlPoint(response.rows, row)
              : CheckSqlAgg(response.rows, at_send, ledger_->Take());
      if (!e.empty() || !sampled) return e;
      const std::string suffix = std::string(".") + kOpNames[op];
      probe("query.plan" + suffix, [&] { impliance_->ExplainSql(sql); });
      const uint64_t rows0 = CounterValue("scan.rows_decoded");
      size_t rows_out = 0;
      probe("core" + suffix, [&] {
        auto rows = impliance_->Sql(sql);
        if (rows.ok()) rows_out = rows->size();
      });
      tally->sums["rows_decoded" + suffix] +=
          static_cast<double>(CounterValue("scan.rows_decoded") - rows0);
      tally->sums["rows_out" + suffix] += static_cast<double>(rows_out);
      if (op == kSqlPoint && impliance_->scale_out() != nullptr) {
        size_t docs = 0;
        probe("cluster.available.sql_point", [&] {
          docs = impliance_->scale_out()->AvailableDocs()->size();
        });
        tally->per_unit["cluster.available_set_docs"].push_back(
            static_cast<double>(docs));
      }
      return "";
    }
    case kFacet: {
      const OrderLedger::Snapshot at_send = ledger_->Take();
      wire::Request req;
      req.op = wire::Op::kFacet;
      req.kind = "order";
      req.facet_paths = kFacetPaths;
      req.limit = kSearchK;
      if (std::string e = call(req); !e.empty()) return e;
      if (std::string e = CheckFacet(response, at_send, ledger_->Take());
          !e.empty()) {
        return e;
      }
      if (!sampled) return "";
      impliance::query::FacetedQuery facet;
      facet.kind = "order";
      facet.facet_paths = kFacetPaths;
      facet.top_k = kSearchK;
      probe("core.facet", [&] { impliance_->Faceted(facet); });
      if (impliance_->scale_out() != nullptr) {
        size_t docs = 0;
        probe("cluster.available.facet", [&] {
          docs = impliance_->scale_out()->AvailableDocs()->size();
        });
        tally->per_unit["cluster.available_set_docs"].push_back(
            static_cast<double>(docs));
      }
      return "";
    }
    case kIngest: {
      const Write write = NextWrite();
      known_->BeginWrite(write.words);
      ledger_->BeginWrite(write.orders.size());
      std::vector<uint64_t> ids;
      std::string error;
      if (!sampled) {
        wire::Request req;
        req.op = wire::Op::kIngest;
        req.kind = write.kind;
        req.payload = write.payload;
        error = call(req);
        ids = response.doc_ids;
      } else {
        // Sent straight to the facade instead of over the wire, so the
        // corpus stays the same as in an untraced run.
        const double parse_us = probe("ingest.parse", [&] {
          impliance::ingest::IngestAny(write.kind, write.payload);
        });
        Impliance* appliance = impliance_.get();
        const auto t0 = Clock::now();
        const double infuse_us = probe("core.ingest", [&] {
          auto result = appliance->InfuseContent(write.kind, write.payload);
          if (result.ok()) {
            ids.assign(result->begin(), result->end());
          } else {
            error = "ingest: " + result.status().ToString();
          }
        });
        *latency_ms = Seconds(Clock::now() - t0) * 1e3;
        tally->per_unit["ingest.infuse_us_per_doc"].push_back(infuse_us -
                                                              parse_us);
      }
      if (error.empty() && ids.size() != 1) {
        error = "ingest: acked " + std::to_string(ids.size()) +
                " ids for one document";
      }
      if (error.empty()) Acknowledge(write, ids);
      ledger_->EndWrite(write.orders.size());
      known_->EndWrite(write.words);
      return error;
    }
    case kNumOps:
      break;
  }
  return "unknown op";
}

void Bench::ClientLoop(int client, Clock::time_point start,
                       Clock::time_point deadline, Tally* tally) {
  Rng rng(options_.seed * 1000003 + static_cast<uint64_t>(client) + 1);
  const std::array<double, kNumOps>& mix = spec_.mix[client];
  while (true) {
    const auto now = Clock::now();
    if (now >= deadline) break;
    const bool heavy_phase =
        static_cast<uint64_t>(Seconds(now - start) / kPhaseSeconds) % 2 == 1;
    std::array<double, kNumOps> weights{};
    double total_weight = 0;
    for (int op = 0; op < kNumOps; ++op) {
      weights[op] = kHeavy[op] == heavy_phase ? mix[op] : 0;
      total_weight += weights[op];
    }
    double pick = rng.NextDouble() * total_weight;
    int op = 0;
    while (op < kNumOps - 1 && pick >= weights[op]) pick -= weights[op++];
    while (weights[op] == 0) --op;  // rounding at the top end

    const bool traced =
        options_.trace &&
        static_cast<uint64_t>(Seconds(now - start) / kTraceWindowSeconds) % 2 ==
            1;
    bool sampled = false;
    if (traced) sampled = ++tally->seen_traced[op] % kSampleEvery == 0;
    const uint64_t request = options_.trace ? spans_.NewRequest() : 0;

    double latency_ms = 0;
    std::string failure;
    if (!options_.trace) {
      failure = RunOp(static_cast<Op>(op), client, &rng, false, request,
                      &latency_ms, tally);
    } else if (sampled) {
      std::unique_lock<std::shared_mutex> lock(probe_mutex_);
      failure = RunOp(static_cast<Op>(op), client, &rng, true, request,
                      &latency_ms, tally);
    } else {
      std::shared_lock<std::shared_mutex> lock(probe_mutex_);
      failure = RunOp(static_cast<Op>(op), client, &rng, false, request,
                      &latency_ms, tally);
    }
    ++tally->attempted[op];
    if (!failure.empty()) {
      ++tally->failed[op];
      if (tally->first_failure.empty()) tally->first_failure = failure;
      continue;
    }
    tally->latency_ms[op].push_back(latency_ms);
    ++tally->ok_by_window[traced ? 1 : 0];
  }
}

std::string Bench::Readback() {
  // Every acknowledged write's documents, thinned evenly to the cap.
  std::vector<Known::Doc> written;
  for (const Known::Doc& doc : known_->Docs()) {
    if (doc.written) written.push_back(doc);
  }
  const size_t stride = written.size() / kMaxReadback + 1;
  impliance::server::ImplianceClient& client = *clients_[0];
  for (size_t i = 0; i < written.size(); i += stride) {
    const Known::Doc& doc = written[i];
    auto body = client.Get(doc.id);
    if (!body.ok()) return "readback: get " + body.status().ToString();
    if (std::string e = CheckGet(*body, doc.marker); !e.empty()) {
      return "readback: " + e;
    }
    wire::Request req;
    req.op = wire::Op::kSearch;
    req.payload = doc.token;
    req.limit = kSearchK;
    auto hits = client.Call(req);
    if (!hits.ok()) return "readback: search " + hits.status().ToString();
    if (std::string e = CheckTokenFound(*hits, doc.id, doc.token);
        !e.empty()) {
      return e;
    }
  }
  return "";
}

void Bench::AddLayerMetrics(
    const std::vector<Tally>& tallies,
    std::map<std::string, std::pair<double, std::string>>* metrics) {
  auto set = [metrics](const std::string& name, double value,
                       const char* unit) {
    (*metrics)[name] = {std::isfinite(value) ? value : 0.0, unit};
  };
  std::map<std::string, std::vector<double>> per_unit = preload_tally_.per_unit;
  std::map<std::string, double> sums;
  for (const Tally& tally : tallies) {
    for (const auto& [name, values] : tally.per_unit) {
      auto& into = per_unit[name];
      into.insert(into.end(), values.begin(), values.end());
    }
    for (const auto& [name, value] : tally.sums) sums[name] += value;
  }
  const auto durations = spans_.DurationMicros();
  auto median_of = [&durations](const std::string& name) {
    auto it = durations.find(name);
    return it == durations.end() ? 0.0 : Median(it->second);
  };

  // server.overhead_us: wire minus direct, paired per sampled read.
  std::map<uint64_t, std::map<std::string, double>> by_request;
  for (const Span& span : spans_.Spans()) {
    by_request[span.request_id][span.name] =
        static_cast<double>(span.end_ns - span.start_ns) / 1e3;
  }
  for (int op = 0; op < kNumOps; ++op) {
    const std::string name = kOpNames[op];
    const std::string direct = op == kGet ? "storage.get" : "core." + name;
    std::vector<double> diffs;
    for (const auto& [request, named] : by_request) {
      auto wire_it = named.find("client." + name);
      auto direct_it = named.find(direct);
      if (wire_it != named.end() && direct_it != named.end()) {
        diffs.push_back(wire_it->second - direct_it->second);
      }
    }
    double overhead = Median(diffs);
    if (op == kIngest) {
      // Sampled ingests skip the wire: compare the medians instead.
      overhead = median_of("client.ingest") - median_of("core.ingest");
    }
    set("server.overhead_us." + name, overhead, "us");
  }
  for (const char* op : {"search", "sql_point", "sql_agg", "facet", "ingest"}) {
    set(std::string("core.") + op + "_us", median_of(std::string("core.") + op),
        "us");
  }
  for (const char* op : {"sql_point", "sql_agg"}) {
    const std::string s(op);
    const double plan = median_of("query.plan." + s);
    set("query.plan_us." + s, plan, "us");
    set("exec.run_us." + s, median_of("core." + s) - plan, "us");
    const double out = sums["rows_out." + s];
    set("exec.rows_scanned_per_row_out." + s,
        out > 0 ? sums["rows_decoded." + s] / out : 0.0, "ratio");
  }
  set("storage.get_us", median_of("storage.get"), "us");
  set("index.postings_scored_per_query",
      Median(per_unit["index.postings_scored_per_query"]), "count");
  set("index.blocks_skipped_per_query",
      Median(per_unit["index.blocks_skipped_per_query"]), "count");
  for (const char* format : {"csv", "json", "xml", "email", "text"}) {
    set(std::string("ingest.parse_us_per_doc.") + format,
        Median(per_unit[std::string("ingest.parse_us_per_doc.") + format]),
        "us");
  }
  set("ingest.infuse_us_per_doc", Median(per_unit["ingest.infuse_us_per_doc"]),
      "us");
  // The cluster layer as shares of the facade call it sits under, and as
  // counts: 0 on single-node workloads, where it does no work. (Times would
  // read 0 in every run there.)
  auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  set("cluster.search_share",
      share(median_of("cluster.search"), median_of("core.search")), "ratio");
  for (const char* op : {"sql_point", "facet"}) {
    set(std::string("cluster.available_share.") + op,
        share(median_of(std::string("cluster.available.") + op),
              median_of(std::string("core.") + op)),
        "ratio");
  }
  set("cluster.available_set_docs",
      Median(per_unit["cluster.available_set_docs"]), "docs");
  set("cluster.tasks_per_query", Median(per_unit["cluster.tasks_per_query"]),
      "count");
  set("cluster.rows_shipped_per_query",
      Median(per_unit["cluster.rows_shipped_per_query"]), "count");
  set("cluster.critical_path_share",
      share(Median(per_unit["cluster.critical_path_us"]),
            median_of("cluster.search")),
      "ratio");
  const auto& agreement = per_unit["cluster.topk_agreement"];
  double agreed = 0;
  for (double a : agreement) agreed += a;
  set("cluster.topk_agreement",
      agreement.empty() ? 0.0 : agreed / agreement.size(), "ratio");
}

int Bench::Run() {
  Generate();
  // Untimed set-ups are repeated and the median reported; the last one
  // stays up for the timed loop.
  const size_t rounds = options_.trace ? 1 : kSetupRounds;
  std::vector<double> setup_seconds;
  for (size_t round = 0; round < rounds; ++round) {
    if (round > 0) Teardown();
    std::string error;
    const auto t0 = Clock::now();
    if (!SetUp(round, &error)) {
      std::fprintf(stderr, "appbench: set-up failed: %s\n", error.c_str());
      return 2;
    }
    setup_seconds.push_back(Seconds(Clock::now() - t0));
  }
  if (options_.trace) MeasureParsers();
  if (options_.trace && spec_.data_nodes > 0) BuildOracle();

  const impliance::storage::StoreStats store0 = impliance_->GetStats().store;
  const auto serving0 = server_->GetServingStats();
  const impliance::obs::HistogramSnapshot search_hist0 =
      impliance::obs::Registry::Global()
          .GetHistogram("index.search.latency_us")
          ->Snapshot();

  std::vector<Tally> tallies(2);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options_.seconds));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back(
          [this, c, start, deadline, &tallies] {
            ClientLoop(c, start, deadline, &tallies[c]);
          });
    }
    for (std::thread& t : threads) t.join();
  }
  const double elapsed = Seconds(Clock::now() - start);
  const impliance::storage::StoreStats store1 = impliance_->GetStats().store;
  const auto serving1 = server_->GetServingStats();
  impliance::obs::HistogramSnapshot search_hist =
      impliance::obs::Registry::Global()
          .GetHistogram("index.search.latency_us")
          ->Snapshot();

  std::string failure;
  uint64_t attempted = 0, failed = 0;
  std::array<uint64_t, kNumOps> op_attempted{}, op_failed{};
  std::array<std::vector<double>, kNumOps> latency;
  uint64_t ok_ops = 0;
  std::array<uint64_t, 2> ok_by_window{};
  for (const Tally& t : tallies) {
    for (int op = 0; op < kNumOps; ++op) {
      op_attempted[op] += t.attempted[op];
      op_failed[op] += t.failed[op];
      latency[op].insert(latency[op].end(), t.latency_ms[op].begin(),
                         t.latency_ms[op].end());
      ok_ops += t.latency_ms[op].size();
    }
    ok_by_window[0] += t.ok_by_window[0];
    ok_by_window[1] += t.ok_by_window[1];
    if (failure.empty()) failure = t.first_failure;
  }
  for (int op = 0; op < kNumOps; ++op) {
    attempted += op_attempted[op];
    failed += op_failed[op];
    std::sort(latency[op].begin(), latency[op].end());
  }
  // Every acknowledged write must read back, by id and by its token.
  std::string readback = Readback();
  ++attempted;
  if (!readback.empty()) {
    ++failed;
    if (failure.empty()) failure = readback;
  }

  std::printf("%-10s %9s %7s %10s %10s %5s\n", "op", "attempted", "failed",
              "p50_ms", "tail_ms", "tail");
  for (int op = 0; op < kNumOps; ++op) {
    std::printf("%-10s %9llu %7llu %10.4f %10.4f %5s\n", kOpNames[op],
                static_cast<unsigned long long>(op_attempted[op]),
                static_cast<unsigned long long>(op_failed[op]),
                Percentile(latency[op], 50),
                Percentile(latency[op], kTail), "p90");
  }

  std::map<std::string, std::pair<double, std::string>> metrics;
  if (!options_.trace) {
    metrics["setup_s"] = {Median(setup_seconds), "s"};
    metrics["ops_s"] = {static_cast<double>(ok_ops) / elapsed, "1/s"};
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    metrics["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0,
                              "MB"};
    for (int op = 0; op < kNumOps; ++op) {
      const std::string name = kOpNames[op];
      metrics[name + "_p50_ms"] = {Percentile(latency[op], 50), "ms"};
      if (kReportTail[op]) {
        metrics[name + "_p90_ms"] = {Percentile(latency[op], kTail), "ms"};
      }
    }
  } else {
    AddLayerMetrics(tallies, &metrics);
    const uint64_t shed = serving1.requests_shed - serving0.requests_shed;
    const uint64_t admitted =
        serving1.requests_admitted - serving0.requests_admitted;
    metrics["server.shed_frac"] = {
        admitted + shed > 0 ? static_cast<double>(shed) / (admitted + shed)
                            : 0.0,
        "ratio"};
    const uint64_t hits = store1.cache_hits - store0.cache_hits;
    const uint64_t misses = store1.cache_misses - store0.cache_misses;
    metrics["storage.cache_hit_rate"] = {
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0,
        "ratio"};
    metrics["storage.segments"] = {static_cast<double>(store1.num_segments),
                                   "count"};
    metrics["storage.wal_bytes_per_user_byte"] = {
        user_bytes_ > 0
            ? static_cast<double>(store1.wal_bytes) / user_bytes_.load()
            : 0.0,
        "ratio"};
    // Mean, not p50: the histogram's p50 is a bucket bound that would
    // repeat exactly from run to run.
    impliance::obs::HistogramSnapshot delta = search_hist;
    for (size_t i = 0; i < delta.buckets.size(); ++i) {
      delta.buckets[i] -= search_hist0.buckets[i];
    }
    delta.total -= search_hist0.total;
    delta.sum -= search_hist0.sum;
    metrics["index.search_us"] = {delta.Mean(), "us"};
    // Both window kinds last equally long (up to the final partial one),
    // so the ratio of their op counts is the ratio of their rates.
    const double untraced_time = [&] {
      double t = 0;
      for (double w = 0; w < elapsed; w += 2 * kTraceWindowSeconds) {
        t += std::min(kTraceWindowSeconds, elapsed - w);
      }
      return t;
    }();
    const double traced_time = elapsed - untraced_time;
    const double untraced_rate = ok_by_window[0] / untraced_time;
    const double traced_rate =
        traced_time > 0 ? ok_by_window[1] / traced_time : untraced_rate;
    metrics["trace.overhead_frac"] = {
        untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0, "ratio"};
    if (!options_.span_path.empty() &&
        !spans_.WriteJsonLines(options_.span_path)) {
      std::fprintf(stderr, "appbench: cannot write %s\n",
                   options_.span_path.c_str());
    }
    for (const auto& [name, self] : spans_.SelfMicros()) {
      std::printf("span %-28s n=%-7zu self_p50_us=%.1f\n", name.c_str(),
                  self.size(), Median(self));
    }
  }
  Teardown();

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", value.first);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + value.second + "\"}";
    first = false;
  }
  json += "}}";
  if (!failure.empty()) {
    std::fprintf(stderr, "appbench: check failed: %s\n", failure.c_str());
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int RunWorkload(const RunOptions& options) {
  WorkloadSpec spec = Spec(options.workload);
  if (spec.name.empty()) {
    std::fprintf(stderr, "appbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  Bench bench(options, std::move(spec));
  return bench.Run();
}

}  // namespace appbench
