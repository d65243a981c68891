#include "green/table/task_type.h"

#include <iterator>

namespace green {

/// Indexed by TaskType.
constexpr const char* kTaskTypeNames[] = {"binary", "multiclass",
                                          "regression"};

const char* TaskTypeName(TaskType task) {
  return kTaskTypeNames[static_cast<size_t>(task)];
}

Result<TaskType> ParseTaskType(const std::string& name) {
  for (size_t i = 0; i < std::size(kTaskTypeNames); ++i) {
    if (name == kTaskTypeNames[i]) return static_cast<TaskType>(i);
  }
  return Status::InvalidArgument("unknown task type: " + name);
}

TaskType TaskTypeForClasses(int num_classes) {
  return num_classes >= 3 ? TaskType::kMulticlass : TaskType::kBinary;
}

}  // namespace green
