#include "viz/trajectory.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "viz/svg.h"

namespace hero::viz {

namespace {

std::vector<PoseSnapshot> snapshot(const sim::LaneWorld& world) {
  std::vector<PoseSnapshot> out;
  out.reserve(static_cast<std::size_t>(world.num_vehicles()));
  for (int i = 0; i < world.num_vehicles(); ++i) {
    const sim::VehicleState st = world.state(i);
    out.push_back({st.x, st.y, st.heading, st.speed, world.lane(i)});
  }
  return out;
}

}  // namespace

void TrajectoryRecorder::start(const sim::LaneWorld& world) {
  frames_.clear();
  collision_step_ = -1;
  frames_.push_back(snapshot(world));
}

void TrajectoryRecorder::record(const sim::LaneWorld& world, bool collision) {
  HERO_CHECK_MSG(!frames_.empty(), "call start() before record()");
  frames_.push_back(snapshot(world));
  if (collision && collision_step_ < 0) {
    collision_step_ = static_cast<int>(frames_.size()) - 1;
  }
}

void TrajectoryRecorder::render_svg(const std::string& path,
                                    const sim::Track& track) const {
  HERO_CHECK(!frames_.empty());
  const double scale = 90.0;  // pixels per metre
  const double road_lo = -0.5 * track.lane_width();
  const double road_hi =
      track.lane_center(track.num_lanes() - 1) + 0.5 * track.lane_width();
  const double margin = 24.0;
  const double width = track.circumference() * scale + 2 * margin;
  const double height = (road_hi - road_lo) * scale + 2 * margin + 20;

  SvgDocument svg(width, height);
  auto X = [&](double x) { return margin + x * scale; };
  // y grows upward in road coordinates; SVG grows downward.
  auto Y = [&](double y) { return margin + (road_hi - y) * scale; };

  // Road surface and lane markings.
  svg.rect({X(0), Y(road_hi)}, track.circumference() * scale,
           (road_hi - road_lo) * scale, "#f2f2f2", "#888");
  for (int l = 0; l + 1 < track.num_lanes(); ++l) {
    const double boundary = 0.5 * (track.lane_center(l) + track.lane_center(l + 1));
    svg.line({X(0), Y(boundary)}, {X(track.circumference()), Y(boundary)}, "#bbb",
             1.5, "8,6");
  }

  const auto& palette = series_palette();
  const std::size_t T = frames_.size();
  for (std::size_t v = 0; v < frames_.front().size(); ++v) {
    const std::string& color = palette[v % palette.size()];
    std::vector<Point> centers;
    for (std::size_t t = 0; t < T; ++t) {
      const auto& p = frames_[t][v];
      const double opacity = 0.15 + 0.75 * static_cast<double>(t) / T;
      svg.rotated_rect({X(p.x), Y(p.y)}, 0.30 * scale, 0.18 * scale,
                       -p.heading * 180.0 / M_PI, color, opacity);
      centers.push_back({X(p.x), Y(p.y)});
    }
    // Label at the final pose.
    std::ostringstream label;
    label << 'v' << (v + 1);
    svg.text({centers.back().x, centers.back().y - 10}, label.str(), 11, color,
             "middle");
  }

  if (collision_step_ >= 0) {
    std::ostringstream note;
    note << "collision at step " << collision_step_;
    svg.text({margin, height - 8}, note.str(), 12, "#cc0000");
  }
  svg.save(path);
}

}  // namespace hero::viz
