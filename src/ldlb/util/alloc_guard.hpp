// Allocation-failure injection for the exact-arithmetic hot paths.
//
// Real std::bad_alloc is nearly impossible to provoke deterministically in a
// test, yet the spill tier of Rational (a weight that outgrows two machine
// words), the BigInt limb vectors, the scratch of the (P1) ball walk
// (view/isomorphism, behind every level's (P1) check) and of the
// colour-refinement kernel (cover/refinement, behind every factor graph)
// are exactly the allocations a long adversary run leans on. ScopedAllocBudget
// arms a *thread-local* byte budget; the library's growth points call
// charge_alloc(bytes) before (logically) allocating, and once the budget is
// exhausted every further charge throws std::bad_alloc — the same failure
// the real allocator would produce, but on demand and reproducibly. The
// guarded layer classifies the resulting throw as RunStatus::kEnvFault.
//
// The budget is thread-local on purpose: a test arms it around the code
// under test without perturbing pool workers, and an unarmed thread pays a
// single thread-local load + branch per charge. Budgets nest; the inner
// scope wins until it is destroyed.
#pragma once

#include <cstddef>
#include <new>

namespace ldlb {

namespace detail {
// -1 = inactive; >= 0 = bytes remaining before charges start throwing.
// constinit: the variable is constant-initialised, so other translation
// units read it directly instead of through a TLS wrapper call.
extern thread_local constinit long long tls_alloc_budget;
}  // namespace detail

/// Arms an allocation budget of `bytes` for the current thread for the
/// lifetime of the object. Nested budgets shadow the outer one.
class ScopedAllocBudget {
 public:
  explicit ScopedAllocBudget(std::size_t bytes)
      : previous_(detail::tls_alloc_budget) {
    detail::tls_alloc_budget = static_cast<long long>(bytes);
  }
  ~ScopedAllocBudget() { detail::tls_alloc_budget = previous_; }

  ScopedAllocBudget(const ScopedAllocBudget&) = delete;
  ScopedAllocBudget& operator=(const ScopedAllocBudget&) = delete;

  /// True when the calling thread currently has a budget armed.
  [[nodiscard]] static bool active() { return detail::tls_alloc_budget >= 0; }

 private:
  long long previous_;
};

/// Charges `bytes` against the calling thread's budget, throwing
/// std::bad_alloc once it is exhausted. No-op (one load + branch) when no
/// budget is armed.
inline void charge_alloc(std::size_t bytes) {
  long long& budget = detail::tls_alloc_budget;
  if (budget < 0) return;
  budget -= static_cast<long long>(bytes);
  if (budget < 0) {
    budget = 0;  // keep throwing on every further charge in this scope
    throw std::bad_alloc{};
  }
}

}  // namespace ldlb
