#pragma once
// Cost specifications for CPU primitives.
//
// Every software component the paper times (§3-§5) is represented as a
// `CostSpec`: a mean duration plus a jitter model. Samples are drawn from a
// moment-matched lognormal (real timing noise is positively skewed) with an
// optional rare heavy tail that models OS/SMM "hiccups" -- the paper's
// Fig. 7 shows exactly this shape (median < mean, max of ~35 us against a
// 282 ns mean).

#include "common/rng.hpp"
#include "common/units.hpp"

namespace bb::cpu {

struct CostSpec {
  /// Mean duration in nanoseconds.
  double mean_ns = 0.0;
  /// Coefficient of variation of the lognormal body (sd = cv * mean).
  /// Zero means a deterministic cost.
  double cv = 0.0;
  /// Probability that a sample additionally incurs a hiccup.
  double tail_prob = 0.0;
  /// Mean of the exponential hiccup duration.
  double tail_mean_ns = 0.0;

  /// The lognormal body's (mu, sigma), cached for the (mean_ns, cv) they
  /// were derived from. Deriving them costs a log1p, a log and a sqrt --
  /// as much as the draw itself -- so sample() computes them once, with
  /// Rng::lognormal_params (the expressions of lognormal_by_moments, so
  /// every draw is bit-identical), and again only when its key differs
  /// from the current fields. Keying on the fields rather than hiding
  /// them keeps every in-place edit (config overlays, what-ifs, tests)
  /// correct: the cache can never go stale. Not part of the spec; copies
  /// carry it along harmlessly.
  struct LognormalCache {
    double mean_ns = 0.0;
    double cv = 0.0;
    Rng::LognormalParams params{0.0, 0.0};
  };
  mutable LognormalCache lognormal_cache{};

  static constexpr CostSpec fixed(double ns) { return CostSpec{ns, 0.0, 0.0, 0.0}; }
  static constexpr CostSpec jittered(double ns, double cv_) {
    return CostSpec{ns, cv_, 0.0, 0.0};
  }

  TimePs mean() const { return TimePs::from_ns(mean_ns); }

  /// Whether sample() draws from the Rng; when it does not, every sample
  /// is mean().
  bool draws() const { return (cv > 0.0 && mean_ns > 0.0) || tail_prob > 0.0; }

  TimePs sample(Rng& rng) const {
    double v = mean_ns;
    if (cv > 0.0 && mean_ns > 0.0) {
      LognormalCache& c = lognormal_cache;
      if (c.mean_ns != mean_ns || c.cv != cv) [[unlikely]] {
        c = {mean_ns, cv, Rng::lognormal_params(mean_ns, cv * mean_ns)};
      }
      v = rng.lognormal(c.params.mu, c.params.sigma);
    }
    if (tail_prob > 0.0 && rng.bernoulli(tail_prob)) {
      v += rng.exponential(tail_mean_ns);
    }
    return TimePs::from_ns(v);
  }

  /// Returns a copy with the mean scaled by `f` (what-if experiments).
  CostSpec scaled(double f) const {
    CostSpec c = *this;
    c.mean_ns *= f;
    return c;
  }
};

}  // namespace bb::cpu
