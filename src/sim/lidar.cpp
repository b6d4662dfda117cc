#include "sim/lidar.h"

#include <algorithm>
#include <cmath>

namespace hero::sim {

namespace {
// Widening applied to the half-angle subtended by a box's circumcircle
// before deciding which beams can hit it. Rounding error in the
// interval arithmetic is a few ulps (~1e-15 rad); 1e-6 rad of slack
// is ~10⁹× that while widening the interval by < 1e-5 beams, so the cull
// stays conservative without ever testing a meaningfully wider fan.
constexpr double kBeamCullMargin = 1e-6;

// Upper bound on asin(x) for x ∈ [0, 1]: asin(x)/x is increasing, so on
// each piece asin(x) ≤ x · asin(t)/t for the piece's right endpoint t (the
// constants below round that ratio up). The cull needs only an upper bound
// on the subtended half-angle — a slightly wide interval tests a beam that
// then misses, never the reverse — and this costs one branch and one
// multiply instead of a libm asin.
double asin_upper_bound(double x) {
  if (x <= 0.5) return 1.0471976 * x;   // asin(0.5)/0.5 = 1.04719755…
  if (x <= 0.9) return 1.2442 * x;      // asin(0.9)/0.9 = 1.24418835…
  return 1.5707964;                     // ≥ π/2 ≥ asin(x)
}
}  // namespace

double approx_atan2(double y, double x) {
  // Octant reduction + the classic quadratic atan approximation on [-1, 1]:
  // atan(z) ≈ z·(π/4 + 0.273·(1 − |z|)). tests/test_spatial_index.cpp
  // sweeps this against std::atan2 and asserts the error stays below
  // kLidarAtanApproxMaxErr, which the beam cull adds back as margin.
  const double ax = std::abs(x);
  const double ay = std::abs(y);
  if (ay <= ax) {
    const double z = y / x;  // |z| ≤ 1; sign of z carries the result's sign
    const double a = z * (0.7853981633974483 + 0.273 * (1.0 - std::abs(z)));
    if (x >= 0.0) return a;
    return a + (y >= 0.0 ? M_PI : -M_PI);
  }
  const double z = x / y;  // |z| < 1
  const double a = z * (0.7853981633974483 + 0.273 * (1.0 - std::abs(z)));
  return (y >= 0.0 ? 0.5 * M_PI : -0.5 * M_PI) - a;
}

LidarSensor::LidarSensor(const LidarConfig& cfg) : cfg_(cfg) {
  HERO_CHECK(cfg_.num_beams > 0);
  HERO_CHECK(cfg_.max_range > 0.0);
  const std::size_t nb = static_cast<std::size_t>(cfg_.num_beams);
  best_.assign(nb, cfg_.max_range);
  dirs_.assign(nb, Vec2{});
  dir_ok_.assign(nb, 0);
}

void LidarSensor::scan_into(double x, double y, double heading, const Obb* boxes,
                            std::size_t num_boxes, Rng* noise_rng,
                            double* out) const {
  const int nb = cfg_.num_beams;
  const Vec2 origin{x, y};
  for (int b = 0; b < nb; ++b) {
    best_[static_cast<std::size_t>(b)] = cfg_.max_range;
    dir_ok_[static_cast<std::size_t>(b)] = 0;
  }

  const double beam_step = 2.0 * M_PI / static_cast<double>(nb);
  for (std::size_t i = 0; i < num_boxes; ++i) {
    const Obb& box = boxes[i];
    const double cx = box.center.x - x;
    const double cy = box.center.y - y;
    const double d2 = cx * cx + cy * cy;
    const double r =
        std::sqrt(box.half_len * box.half_len + box.half_wid * box.half_wid);
    // Beam range [lo, hi] (unwrapped beam indices) that can geometrically
    // reach the box: a ray from the origin misses the circumcircle — and
    // therefore the box — unless its angle is within asin(r/d) of the
    // centre direction. Origin inside the circumcircle ⇒ every beam may hit.
    // Both the half-angle and the centre use cheap conservative stand-ins
    // for the libm calls (upper-bounded asin, error-bounded atan2 with the
    // bound added back as margin): the interval can only widen, and a wider
    // interval tests beams that then miss — output is still bitwise equal
    // to the all-pairs narrow phase.
    int lo = 0;
    int hi = nb - 1;
    if (d2 > r * r) {
      const double d = std::sqrt(d2);
      const double half = asin_upper_bound(std::min(1.0, r / d)) +
                          kLidarAtanApproxMaxErr + kBeamCullMargin;
      const double center = (approx_atan2(cy, cx) - heading) / beam_step;
      const double halfb = half / beam_step;
      lo = static_cast<int>(std::ceil(center - halfb));
      hi = static_cast<int>(std::floor(center + halfb));
      if (hi - lo + 1 >= nb) {
        lo = 0;
        hi = nb - 1;
      } else if (hi < lo) {
        continue;  // interval holds no beam direction
      }
    }
    // Hoist the box-frame rotation: every surviving beam casts against the
    // same box, so cos/sin of -heading are paid once per box instead of
    // twice per cast (ray_obb_prerot keeps the result bit-identical).
    const double rot_cos = std::cos(-box.heading);
    const double rot_sin = std::sin(-box.heading);
    for (int bb = lo; bb <= hi; ++bb) {
      const int b = ((bb % nb) + nb) % nb;
      const std::size_t sb = static_cast<std::size_t>(b);
      if (!dir_ok_[sb]) {
        // Must match the reference beam-angle expression bit-for-bit.
        const double angle =
            heading + 2.0 * M_PI * static_cast<double>(b) / cfg_.num_beams;
        dirs_[sb] = Vec2{std::cos(angle), std::sin(angle)};
        dir_ok_[sb] = 1;
      }
      if (auto t = ray_obb_prerot(origin, dirs_[sb], box, rot_cos, rot_sin);
          t && *t < best_[sb]) {
        best_[sb] = *t;
      }
    }
  }

  // Noise and normalization in ascending beam order: the per-beam draw
  // sequence is identical to the beams-outer reference loop.
  for (int b = 0; b < nb; ++b) {
    double best = best_[static_cast<std::size_t>(b)];
    if (noise_rng && cfg_.noise_stddev > 0.0) {
      best = std::clamp(best + noise_rng->normal(0.0, cfg_.noise_stddev), 0.0,
                        cfg_.max_range);
    }
    out[static_cast<std::size_t>(b)] = best / cfg_.max_range;
  }
}

}  // namespace hero::sim
