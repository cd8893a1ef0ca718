#ifndef APPBENCH_CHECK_H_
#define APPBENCH_CHECK_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "gen.h"
#include "server/wire_protocol.h"

// Answer checking for the appliance benchmark. Every check is a pure
// function of a decoded wire answer and the generator's ground truth, so a
// test can feed it a deliberately wrong answer without involving the
// program. A check returns "" when the answer is right, else a message that
// starts with the name of the check that failed.
namespace appbench {

// Ground truth for the `order` view while writes may be in flight: per
// product and per customer, the rows preloaded plus the rows of every
// acknowledged write, and the rows of writes sent but not yet acknowledged.
// An answer computed at any moment between a request's send and its
// receipt lies between the snapshot taken at send and the snapshot taken
// at receipt plus the rows then in flight.
class OrderLedger {
 public:
  struct Snapshot {
    std::vector<int64_t> product_count;  // by product rank
    std::vector<double> product_sum;
    std::vector<int64_t> customer_count;  // by customer id - 1000
    int64_t rows = 0;
    int64_t rows_in_flight = 0;
  };

  OrderLedger();
  void AddAcked(const std::vector<OrderRow>& rows);
  void BeginWrite(size_t rows);
  void EndWrite(size_t rows);
  Snapshot Take() const;

 private:
  mutable std::mutex mutex_;
  Snapshot state_;
};

// Product rank of a generated product name, or -1.
int ProductRank(const std::string& product);

// `SELECT product, COUNT(*), SUM(total) FROM order GROUP BY product`.
// With no write in flight and equal snapshots the answer must match
// exactly: same products, same counts, and each sum rendered as the
// appliance renders doubles (%g).
std::string CheckSqlAgg(const std::vector<std::string>& rows,
                        const OrderLedger::Snapshot& at_send,
                        const OrderLedger::Snapshot& at_receipt);

// `SELECT product, total FROM order WHERE order_no = <row.order_no>`.
std::string CheckSqlPoint(const std::vector<std::string>& rows,
                          const OrderRow& row);

// Facet over kind `order`, paths /doc/product and /doc/customer_id: the
// match total and every reported count lie between the truth at send and
// the truth at receipt plus the rows still in flight.
std::string CheckFacet(const impliance::server::wire::Response& response,
                       const OrderLedger::Snapshot& at_send,
                       const OrderLedger::Snapshot& at_receipt);

// Ranked keyword search: a complete (non-degraded) answer of distinct hits
// in non-increasing score order, each a document that holds a query term
// (`holds_query_term`, from the generator's record of every document), and
// min(k, `matching_at_send`) of them at least, where `matching_at_send`
// counts the acknowledged documents holding a query term when the request
// was sent.
std::string CheckSearch(
    const impliance::server::wire::Response& response, size_t k,
    size_t matching_at_send,
    const std::function<bool(uint64_t)>& holds_query_term);

// Get: a complete body that contains the marker the generator put in the
// document (a unique token, or the order number as JSON) as a whole word:
// not preceded or followed by a letter or digit.
std::string CheckGet(const std::string& body, const std::string& marker);

// Search for a document's unique token finds that document.
std::string CheckTokenFound(const impliance::server::wire::Response& response,
                            uint64_t doc_id, const std::string& token);

// The marker CheckGet looks for in an order's JSON body.
std::string OrderMarker(int64_t order_no);

}  // namespace appbench

#endif  // APPBENCH_CHECK_H_
