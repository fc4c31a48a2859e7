// Opt-in latch for redundant self-checks on hot construction paths.
//
// A few internal invariants (covering-property of straight-line lifts,
// forest-ness of a certificate graph minus one loop) are implied by how the
// adversary builds its inputs, yet re-deriving them costs as much as the
// surrounding work — together they dominated the Δ=12 profile. They stay
// available as debug oracles behind this latch instead of being deleted,
// together with the ball-extraction re-derivation of every refinement-
// decided (P1) verdict and the interpreter re-run of every closed-form
// simulation: set LDLB_SLOW_CHECKS=1 (or the older, narrower
// LDLB_LIFT_CHECK=1). Certificate validation performs its own, always-on
// forest/covering checks regardless of this latch.
#pragma once

#include <cstdlib>
#include <initializer_list>

namespace ldlb {

inline bool slow_checks_enabled() {
  static const bool enabled = [] {
    for (const char* var : {"LDLB_SLOW_CHECKS", "LDLB_LIFT_CHECK"}) {
      // ldlb-analyze: allow(determinism): latched once; only toggles extra
      // validation that aborts on disagreement, never changes results.
      const char* s = std::getenv(var);
      if (s != nullptr && *s != '\0' && *s != '0') return true;
    }
    return false;
  }();
  return enabled;
}

}  // namespace ldlb
