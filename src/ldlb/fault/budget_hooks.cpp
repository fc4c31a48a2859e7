#include "ldlb/fault/budget_hooks.hpp"

#include <sstream>

#include "ldlb/util/error.hpp"

namespace ldlb {

void BudgetHooks::poll() const {
  if (cancel_ != nullptr) cancel_->check();
  if (limits_.deadline.expired()) {
    throw Cancelled("run cancelled: global deadline expired",
                    "deadline expired");
  }
}

bool BudgetHooks::node_crashed(NodeId /*node*/, int /*round*/) {
  poll();
  return false;
}

void BudgetHooks::on_send_ec(NodeId /*node*/, int /*round*/,
                             std::map<Color, Message>& /*outbox*/) {
  poll();
}

void BudgetHooks::on_send_po(NodeId /*node*/, int /*round*/,
                             std::map<PoEnd, Message>& /*outbox*/) {
  poll();
}

bool BudgetHooks::on_deliver(EdgeId /*edge*/, NodeId /*from*/, NodeId /*to*/,
                             int /*round*/, Message& /*payload*/) {
  const long long total =
      total_messages_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (limits_.max_total_messages > 0 && total > limits_.max_total_messages) {
    // The text names the cap, not `total`, so the what() string is the
    // same wherever the cap is crossed.
    std::ostringstream os;
    os << "cumulative message budget of " << limits_.max_total_messages
       << " exceeded";
    throw BudgetExceeded(os.str(), BudgetExceeded::Kind::kMessages,
                         limits_.max_total_messages,
                         limits_.max_total_messages + 1);
  }
  return true;
}

}  // namespace ldlb
