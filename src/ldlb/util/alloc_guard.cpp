#include "ldlb/util/alloc_guard.hpp"

namespace ldlb {
namespace detail {

thread_local constinit long long tls_alloc_budget = -1;

}  // namespace detail
}  // namespace ldlb
