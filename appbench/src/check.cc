#include "check.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>

#include "common/string_util.h"

namespace appbench {

namespace {

// Splits one tab-separated SQL row.
std::vector<std::string> Fields(const std::string& row) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t tab = row.find('\t', start);
    fields.push_back(row.substr(start, tab - start));
    if (tab == std::string::npos) break;
    start = tab + 1;
  }
  return fields;
}

bool ParseNumber(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && std::isfinite(*out);
}

// Sums are rendered with 6 significant digits, so bounds get that slack.
bool SumWithin(double value, double lo, double hi) {
  const double slack = 1e-5 * std::max(std::abs(lo), std::abs(hi)) + 1e-9;
  return value >= lo - slack && value <= hi + slack;
}

std::string Fail(const std::string& check, const std::string& detail) {
  return check + ": " + detail;
}

// The value %g renders, as the appliance does for doubles in SQL rows.
std::string RenderDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

}  // namespace

OrderLedger::OrderLedger() {
  state_.product_count.assign(kNumProducts, 0);
  state_.product_sum.assign(kNumProducts, 0.0);
  state_.customer_count.assign(kNumCustomers, 0);
}

void OrderLedger::AddAcked(const std::vector<OrderRow>& rows) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const OrderRow& row : rows) {
    const int rank = ProductRank(row.product);
    state_.product_count[rank] += 1;
    state_.product_sum[rank] += row.total;
    state_.customer_count[row.customer_id - 1000] += 1;
    ++state_.rows;
  }
}

void OrderLedger::BeginWrite(size_t rows) {
  std::lock_guard<std::mutex> lock(mutex_);
  state_.rows_in_flight += static_cast<int64_t>(rows);
}

void OrderLedger::EndWrite(size_t rows) {
  std::lock_guard<std::mutex> lock(mutex_);
  state_.rows_in_flight -= static_cast<int64_t>(rows);
}

OrderLedger::Snapshot OrderLedger::Take() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

int ProductRank(const std::string& product) {
  static const std::map<std::string, int> ranks = [] {
    std::map<std::string, int> out;
    for (size_t i = 0; i < kNumProducts; ++i) {
      out[ProductName(i)] = static_cast<int>(i);
    }
    return out;
  }();
  auto it = ranks.find(product);
  return it == ranks.end() ? -1 : it->second;
}

std::string OrderMarker(int64_t order_no) {
  return "\"order_no\": " + std::to_string(order_no);
}

std::string CheckSqlAgg(const std::vector<std::string>& rows,
                        const OrderLedger::Snapshot& at_send,
                        const OrderLedger::Snapshot& at_receipt) {
  const char* kCheck = "sql_agg";
  const int64_t slack = at_receipt.rows_in_flight;
  const bool exact = slack == 0 && at_send.rows == at_receipt.rows;
  std::set<int> seen;
  for (const std::string& row : rows) {
    const std::vector<std::string> fields = Fields(row);
    if (fields.size() != 3) return Fail(kCheck, "row has not 3 fields: " + row);
    const int rank = ProductRank(fields[0]);
    if (rank < 0) return Fail(kCheck, "unknown product " + fields[0]);
    if (!seen.insert(rank).second) {
      return Fail(kCheck, "product twice: " + fields[0]);
    }
    double count = 0.0, sum = 0.0;
    if (!ParseNumber(fields[1], &count) || !ParseNumber(fields[2], &sum)) {
      return Fail(kCheck, "non-numeric aggregate in " + row);
    }
    const int64_t lo = at_send.product_count[rank];
    const int64_t hi = at_receipt.product_count[rank] + slack;
    if (count < static_cast<double>(lo) || count > static_cast<double>(hi)) {
      return Fail(kCheck, fields[0] + " count " + fields[1] + " outside [" +
                              std::to_string(lo) + ", " + std::to_string(hi) +
                              "]");
    }
    if (exact) {
      const std::string want = RenderDouble(at_send.product_sum[rank]);
      if (fields[2] != want) {
        return Fail(kCheck, fields[0] + " sum " + fields[2] + " != " + want);
      }
    } else if (!SumWithin(sum, at_send.product_sum[rank],
                          at_receipt.product_sum[rank] + slack * 2000.0)) {
      return Fail(kCheck, fields[0] + " sum " + fields[2] + " out of bounds");
    }
  }
  for (size_t rank = 0; rank < kNumProducts; ++rank) {
    if (at_send.product_count[rank] > 0 &&
        !seen.count(static_cast<int>(rank))) {
      return Fail(kCheck, "missing product " + ProductName(rank));
    }
  }
  return "";
}

std::string CheckSqlPoint(const std::vector<std::string>& rows,
                          const OrderRow& row) {
  const char* kCheck = "sql_point";
  if (rows.size() != 1) {
    return Fail(kCheck, "order " + std::to_string(row.order_no) + " gave " +
                            std::to_string(rows.size()) + " rows");
  }
  const std::string want = row.product + "\t" + RenderDouble(row.total);
  if (rows[0] != want) {
    return Fail(kCheck, "order " + std::to_string(row.order_no) + " gave '" +
                            rows[0] + "', want '" + want + "'");
  }
  return "";
}

std::string CheckFacet(const impliance::server::wire::Response& response,
                       const OrderLedger::Snapshot& at_send,
                       const OrderLedger::Snapshot& at_receipt) {
  const char* kCheck = "facet";
  if (response.degraded) return Fail(kCheck, "degraded on a healthy cluster");
  const int64_t slack = at_receipt.rows_in_flight;
  bool have_total = false;
  for (const auto& [name, value] : response.counters) {
    if (name != "total_matches") continue;
    have_total = true;
    const auto total = static_cast<int64_t>(value);
    if (total < at_send.rows || total > at_receipt.rows + slack) {
      return Fail(kCheck, "total_matches " + std::to_string(total) +
                              " outside [" + std::to_string(at_send.rows) +
                              ", " + std::to_string(at_receipt.rows + slack) +
                              "]");
    }
  }
  if (!have_total) return Fail(kCheck, "no total_matches counter");
  size_t products = 0;
  size_t customers = 0;
  for (const std::string& line : impliance::Split(response.body, '\n')) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = Fields(line);
    double count = 0.0;
    if (fields.size() != 3 || !ParseNumber(fields[2], &count)) {
      return Fail(kCheck, "malformed line '" + line + "'");
    }
    int64_t lo = 0, hi = 0;
    if (fields[0] == "/doc/product") {
      const int rank = ProductRank(fields[1]);
      if (rank < 0) return Fail(kCheck, "unknown product " + fields[1]);
      lo = at_send.product_count[rank];
      hi = at_receipt.product_count[rank] + slack;
      ++products;
    } else if (fields[0] == "/doc/customer_id") {
      double id = 0.0;
      if (!ParseNumber(fields[1], &id) || id < 1000 ||
          id >= 1000 + static_cast<double>(kNumCustomers)) {
        return Fail(kCheck, "unknown customer " + fields[1]);
      }
      const auto index = static_cast<size_t>(id) - 1000;
      lo = at_send.customer_count[index];
      hi = at_receipt.customer_count[index] + slack;
      ++customers;
    } else {
      return Fail(kCheck, "unexpected facet path " + fields[0]);
    }
    if (count < static_cast<double>(lo) || count > static_cast<double>(hi)) {
      return Fail(kCheck, fields[0] + "=" + fields[1] + " count " + fields[2] +
                              " outside [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + "]");
    }
  }
  if (at_send.rows > 0 && (products == 0 || customers == 0)) {
    return Fail(kCheck, "a requested facet has no values");
  }
  return "";
}

std::string CheckSearch(
    const impliance::server::wire::Response& response, size_t k,
    size_t matching_at_send,
    const std::function<bool(uint64_t)>& holds_query_term) {
  const char* kCheck = "search";
  if (response.degraded) return Fail(kCheck, "degraded on a healthy cluster");
  if (response.hits.size() > k) {
    return Fail(kCheck, std::to_string(response.hits.size()) + " hits > k");
  }
  if (response.hits.size() < std::min(k, matching_at_send)) {
    return Fail(kCheck, std::to_string(response.hits.size()) + " hits, but " +
                            std::to_string(matching_at_send) +
                            " documents hold a query term");
  }
  std::set<uint64_t> ids;
  for (size_t i = 0; i < response.hits.size(); ++i) {
    const impliance::server::wire::SearchResult& hit = response.hits[i];
    if (!std::isfinite(hit.score)) return Fail(kCheck, "non-finite score");
    if (i > 0 && hit.score > response.hits[i - 1].score) {
      return Fail(kCheck, "scores not in descending order");
    }
    if (!holds_query_term(hit.doc)) {
      return Fail(kCheck, "hit " + std::to_string(hit.doc) +
                              " holds no query term");
    }
    if (!ids.insert(hit.doc).second) {
      return Fail(kCheck, "duplicate hit " + std::to_string(hit.doc));
    }
  }
  return "";
}

std::string CheckGet(const std::string& body, const std::string& marker) {
  auto is_word_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0;
  };
  for (size_t at = body.find(marker); at != std::string::npos;
       at = body.find(marker, at + 1)) {
    const size_t end = at + marker.size();
    if ((at == 0 || !is_word_char(body[at - 1])) &&
        (end == body.size() || !is_word_char(body[end]))) {
      return "";
    }
  }
  return Fail("get", "body lacks '" + marker + "'");
}

std::string CheckTokenFound(const impliance::server::wire::Response& response,
                            uint64_t doc_id, const std::string& token) {
  if (response.degraded) return Fail("readback", "degraded token search");
  for (const impliance::server::wire::SearchResult& hit : response.hits) {
    if (hit.doc == doc_id) return "";
  }
  return Fail("readback", "search for " + token + " misses doc " +
                              std::to_string(doc_id));
}

}  // namespace appbench
