#include "src/parallel/schedule.hpp"

namespace ebem::par {

std::string to_string(const Schedule& schedule) {
  std::string name;
  switch (schedule.kind) {
    case ScheduleKind::kStatic:
      name = "Static";
      break;
    case ScheduleKind::kDynamic:
      name = "Dynamic";
      break;
    case ScheduleKind::kGuided:
      name = "Guided";
      break;
  }
  if (schedule.chunk > 0) {
    name += ',';
    name += std::to_string(schedule.chunk);
  }
  return name;
}

}  // namespace ebem::par
